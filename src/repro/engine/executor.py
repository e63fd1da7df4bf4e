"""Query executor producing annotated query plans.

The executor evaluates a :class:`~repro.workload.query.Query` against a
:class:`~repro.engine.database.Database`, building the left-deep plan of the
paper's Figure 1(c): scan/filter the root relation, then repeatedly filter a
dimension relation and PK-FK join it in.  Every operator's output cardinality
is recorded, which is precisely the AQP the client site ships to the vendor.

Two execution modes produce identical results:

* ``"pipelined"`` (the default) runs the plan batch-at-a-time through the
  run-batch operators of :mod:`repro.engine.pipeline`: every relation is
  consumed via :meth:`Database.scan_batches`, so stream-attached relations
  are never materialised — a regenerated relation flows as one run per
  summary row, fact and dimension side alike, and peak memory is one batch
  of runs plus the dimension build sides;
* ``"materialize"`` is the classic table-at-a-time reference path: every
  relation of the query is fully materialised before the first operator
  runs, so the operators see count-1 runs of whole tables.

Both modes share the same operators and join kernel (:class:`HashJoinBuild`),
and because filters are row-local and PK-FK joins match each fact row at most
once, the modes emit byte-identical result tables and
:class:`~repro.engine.plan.AnnotatedQueryPlan` cardinalities.  The executor's
:attr:`Executor.stats` hook records the peak batch (or intermediate) run
rows either mode pushed through the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.engine.database import Database
from repro.engine.pipeline import (
    BatchFilter,
    BatchHashJoin,
    BatchOperator,
    BatchScan,
    HashJoinBuild,
    PipelineStats,
    collect,
    count_predicates,
    drain,
)
from repro.engine.plan import AnnotatedQueryPlan, FilterNode, JoinNode, PlanNode, ScanNode
from repro.engine.table import RunBatch, Table
from repro.errors import EngineError
from repro.obs.trace import span as trace_span
from repro.predicates.dnf import DNFPredicate
from repro.workload.query import Query, Workload

#: Supported execution modes.
EXECUTOR_MODES = ("pipelined", "materialize")


@dataclass
class ExecutionResult:
    """The outcome of executing one query: the final intermediate table (the
    join result, before any projection/aggregation) and the AQP."""

    table: Table
    plan: AnnotatedQueryPlan


class Executor:
    """Executes workload queries against a database, producing AQPs.

    Parameters
    ----------
    database:
        The database to execute against.
    mode:
        ``"pipelined"`` (default) evaluates run batches without ever
        materialising stream-attached relations; ``"materialize"`` is the
        table-at-a-time reference path.  Results are identical in both
        modes.
    """

    def __init__(self, database: Database, mode: str = "pipelined") -> None:
        if mode not in EXECUTOR_MODES:
            raise EngineError(
                f"unknown executor mode {mode!r}; expected one of {EXECUTOR_MODES}"
            )
        self.database = database
        self.schema = database.schema
        self.mode = mode
        #: Peak-batch-rows accounting across every query this executor ran.
        self.stats = PipelineStats()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def execute(self, query: Query) -> ExecutionResult:
        """Execute ``query`` and return the result table plus its AQP.

        Collecting the result table concatenates the output batches; use
        :meth:`execute_plan` when only the AQP is needed (constant memory in
        pipelined mode) or :meth:`count` for streaming predicate counts.
        """
        pipeline, make_plan = self._prepare(query)
        table = collect(pipeline)
        return ExecutionResult(table=table, plan=make_plan())

    def execute_plan(self, query: Query) -> AnnotatedQueryPlan:
        """Execute ``query`` for its AQP alone, discarding result batches.

        In pipelined mode this is the constant-memory path: batches flow
        through the operators into a cardinality-accumulating sink and are
        dropped, so AQPs can be collected over databases far larger than
        memory.
        """
        pipeline, make_plan = self._prepare(query)
        drain(pipeline)
        return make_plan()

    def count(self, query: Query,
              predicates: Sequence[DNFPredicate]) -> List[int]:
        """Execute ``query`` and count, per predicate, the matching result
        rows — without retaining the result table in pipelined mode."""
        pipeline, _ = self._prepare(query)
        return count_predicates(pipeline, predicates)

    def execute_workload(self, workload: Workload) -> List[AnnotatedQueryPlan]:
        """Execute every query of the workload, returning the AQPs."""
        with trace_span("engine.execute_workload", mode=self.mode,
                        queries=len(workload)) as span:
            plans = [self.execute_plan(query) for query in workload]
            span.set_attribute("batches", self.stats.batches)
            span.set_attribute("peak_batch_rows", self.stats.peak_batch_rows)
            span.set_attribute("tuples", self.stats.tuples)
        return plans

    # ------------------------------------------------------------------ #
    # plan assembly (shared by both modes)
    # ------------------------------------------------------------------ #
    def _prepare(
        self, query: Query,
    ) -> Tuple[BatchOperator, Callable[[], AnnotatedQueryPlan]]:
        """Validate the query and assemble its operator chain.

        Materialize mode forces every relation of the query into a whole
        table first, so each scan yields one full-size batch of count-1 runs
        and every operator sees (and accounts) complete intermediates —
        table-at-a-time execution as a degenerate one-batch pipeline,
        sharing a single plan-construction path with pipelined mode.
        """
        query.validate(self.schema)
        if self.mode == "materialize":
            for relation in query.relations:
                self.database.table(relation)
        return self._build_pipeline(query)

    def _build_pipeline(
        self, query: Query,
    ) -> Tuple[BatchOperator, Callable[[], AnnotatedQueryPlan]]:
        """Assemble the operator chain for ``query``.

        Returns the chain's top operator plus a plan factory to call *after*
        the chain has been drained: operator cardinalities are only complete
        once every batch has flowed through.  Dimension (build) sides are
        resolved eagerly — all of a dimension's (filtered) runs, which for a
        regenerated dimension is its summary, never its tuples; only the
        fact side streams.
        """
        scan_op = BatchScan(self.database, query.root, self.stats)
        source: BatchOperator = scan_op
        root_filter = query.filter_for(query.root)
        filter_op: Optional[BatchFilter] = None
        if not root_filter.is_true:
            filter_op = BatchFilter(source, root_filter, self.stats)
            source = filter_op

        joins: List[Tuple[BatchHashJoin, str, str, int, DNFPredicate, int]] = []
        for _, fk_column, parent in query.join_order(self.schema):
            parent_runs = RunBatch.concat(list(BatchScan(self.database, parent)))
            scan_cardinality = parent_runs.num_rows
            parent_filter = query.filter_for(parent)
            build_side = parent_runs
            if not parent_filter.is_true:
                build_side = parent_runs.filter(parent_filter)
            build = HashJoinBuild(build_side)
            join_op = BatchHashJoin(source, fk_column, build, self.stats)
            source = join_op
            joins.append((join_op, fk_column, parent, scan_cardinality,
                          parent_filter, build_side.num_rows))

        def make_plan() -> AnnotatedQueryPlan:
            plan: PlanNode = ScanNode(relation=query.root, cardinality=scan_op.rows_out)
            if filter_op is not None:
                plan = FilterNode(
                    relation=query.root,
                    predicate=root_filter,
                    child=plan,
                    cardinality=filter_op.rows_out,
                )
            for join_op, fk_column, parent, scan_cardinality, parent_filter, \
                    filtered_cardinality in joins:
                parent_scan: PlanNode = ScanNode(
                    relation=parent, cardinality=scan_cardinality
                )
                if not parent_filter.is_true:
                    parent_scan = FilterNode(
                        relation=parent,
                        predicate=parent_filter,
                        child=parent_scan,
                        cardinality=filtered_cardinality,
                    )
                plan = JoinNode(
                    fk_column=fk_column,
                    parent_relation=parent,
                    left=plan,
                    right=parent_scan,
                    cardinality=join_op.rows_out,
                )
            return AnnotatedQueryPlan(
                query_id=query.query_id,
                root_relation=query.root,
                root=plan,
                relations=tuple(query.relations),
            )

        return source, make_plan
