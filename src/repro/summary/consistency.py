"""Inter-view referential consistency (Section 5.3).

View solutions are computed independently per relation, so a child view may
contain value combinations (for the attributes it borrowed from a parent)
that do not occur in the parent's own view summary.  Hydra repairs this by
walking the referential dependency graph in topological order (dependents
first) and adding each missing combination to the parent with a tuple count
of one.  The number of added tuples — the *additive error* — depends only on
the constraints and the LP solution, never on the data scale, which is the
property Figure 11 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

import networkx as nx

from repro.schema.schema import Schema
from repro.summary.view_summary import ViewSummary
from repro.views.viewdef import ViewSet


@dataclass
class ConsistencyReport:
    """Outcome of the referential-consistency pass: the number of extra
    tuples added per relation (Figure 11's metric)."""

    extra_tuples: Dict[str, int] = field(default_factory=dict)

    def total(self) -> int:
        """Total extra tuples added across all relations."""
        return sum(self.extra_tuples.values())


def enforce_referential_consistency(summaries: Mapping[str, ViewSummary],
                                    views: ViewSet, schema: Schema,
                                    ) -> ConsistencyReport:
    """Make the view summaries mutually consistent, in place.

    For every relation (processed so that dependents are handled before the
    relations they reference), each direct dependent's rows are projected
    onto the referenced view's attributes; missing combinations are appended
    to the referenced view with ``NumTuples = 1``.
    """
    report = ConsistencyReport(extra_tuples={name: 0 for name in summaries})

    # Dependents first: standard topological order of the dependency graph,
    # whose edges point from the dependent relation to the referenced one.
    order = list(nx.topological_sort(schema.dependency_graph))

    for target in order:
        if target not in summaries:
            continue
        target_summary = summaries[target]
        target_attrs = views.view(target).attributes
        known = set(values for values, _ in target_summary.rows)
        for dependent in schema.dependents_of(target):
            if dependent not in summaries:
                continue
            dependent_summary = summaries[dependent]
            for values, _count in dependent_summary.rows:
                combo = dependent_summary.project_row(values, target_attrs)
                if combo in known:
                    continue
                target_summary.add_row(combo, 1)
                known.add(combo)
                report.extra_tuples[target] = report.extra_tuples.get(target, 0) + 1
    return report
