"""Database summary generation: align/merge, view summaries, referential
consistency and relation summaries."""

from repro.summary.align import merge_subview_solutions
from repro.summary.consistency import ConsistencyReport, enforce_referential_consistency
from repro.summary.relation_summary import (
    DatabaseSummary,
    RelationSummary,
    build_relation_summary,
)
from repro.summary.solution import (
    SolutionRow,
    SubViewSolution,
    ViewSolution,
    subview_solutions,
)
from repro.summary.view_summary import ViewSummary, instantiate_view_summary

__all__ = [
    "SolutionRow",
    "SubViewSolution",
    "ViewSolution",
    "subview_solutions",
    "merge_subview_solutions",
    "ViewSummary",
    "instantiate_view_summary",
    "ConsistencyReport",
    "enforce_referential_consistency",
    "RelationSummary",
    "DatabaseSummary",
    "build_relation_summary",
]
