"""In-memory columnar relational engine producing annotated query plans."""

from repro.engine.database import Database
from repro.engine.executor import EXECUTOR_MODES, ExecutionResult, Executor
from repro.engine.pipeline import (
    BatchFilter,
    BatchHashJoin,
    BatchOperator,
    BatchScan,
    HashJoinBuild,
    PipelineStats,
)
from repro.engine.plan import (
    AnnotatedQueryPlan,
    FilterNode,
    JoinNode,
    PlanNode,
    ScanNode,
)
from repro.engine.table import RunBatch, Table

__all__ = [
    "Table",
    "RunBatch",
    "Database",
    "Executor",
    "ExecutionResult",
    "EXECUTOR_MODES",
    "AnnotatedQueryPlan",
    "PlanNode",
    "ScanNode",
    "FilterNode",
    "JoinNode",
    "BatchOperator",
    "BatchScan",
    "BatchFilter",
    "BatchHashJoin",
    "HashJoinBuild",
    "PipelineStats",
]
