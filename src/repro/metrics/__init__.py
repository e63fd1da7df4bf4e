"""Evaluation metrics: volumetric similarity, LP sizes, integrity accounting,
timing utilities and the materialisation cost model."""

from repro.metrics.costmodel import (
    ThroughputModel,
    format_duration,
    materialization_table,
    rows_for_target_bytes,
)
from repro.metrics.integrity import IntegrityComparison, compare_extra_tuples
from repro.metrics.lpsize import LPSizeComparison, compare_lp_sizes
from repro.metrics.similarity import (
    ConstraintResult,
    SimilarityReport,
    SummaryViewResolver,
    evaluate_on_database,
    evaluate_on_summary,
    evaluate_with_executor,
)
from repro.metrics.timing import Timer

__all__ = [
    "ConstraintResult",
    "SimilarityReport",
    "SummaryViewResolver",
    "evaluate_on_database",
    "evaluate_on_summary",
    "evaluate_with_executor",
    "LPSizeComparison",
    "compare_lp_sizes",
    "IntegrityComparison",
    "compare_extra_tuples",
    "ThroughputModel",
    "materialization_table",
    "rows_for_target_bytes",
    "format_duration",
    "Timer",
]
