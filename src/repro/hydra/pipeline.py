"""The Hydra vendor-side pipeline (Figure 2).

Given the client schema and the cardinality constraints extracted from the
client's annotated query plans, :class:`Hydra` produces a
:class:`~repro.summary.DatabaseSummary`:

1. the shared preprocessor rewrites CCs onto per-relation views and
   decomposes each view into sub-views (maximal cliques),
2. the LP formulator region-partitions every sub-view and emits one LP per
   view (cardinality constraints + cross-sub-view consistency constraints),
3. the LP solver finds an integral feasible point,
4. the summary generator deterministically aligns and merges the sub-view
   solutions, instantiates view summaries, repairs referential integrity and
   extracts the per-relation summaries.

The summary can then be handed to the tuple generator for dynamic generation
or materialisation — both of which cost time proportional to the *target*
data size, while everything in this module costs time independent of it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # imported lazily at runtime to avoid a service<->hydra cycle
    from repro.service.store import SummaryStore

from repro.api.config import RegenConfig
from repro.constraints.cc import CardinalityConstraint
from repro.constraints.workload import ConstraintSet
from repro.lp.decompose import Decomposition, decompose_model
from repro.lp.formulate import count_lp_variables, formulate_view_lp
from repro.lp.model import LPSolution, ViewLP
from repro.lp.solver import MILP_TIME_LIMIT, MILP_VARIABLE_LIMIT, ParallelLPSolver
from repro.schema.schema import Schema
from repro.summary.align import merge_subview_solutions
from repro.summary.consistency import enforce_referential_consistency
from repro.summary.relation_summary import (
    DatabaseSummary,
    build_relation_summary,
)
from repro.summary.solution import subview_solutions
from repro.summary.view_summary import ViewSummary, instantiate_view_summary
from repro.views.preprocess import Preprocessor, ViewTask


@dataclass
class ViewBuildReport:
    """Diagnostics for one view: LP size, solve statistics and timings."""

    relation: str
    num_subviews: int = 0
    num_constraints: int = 0
    lp_variables: int = 0
    lp_constraints: int = 0
    solver_method: str = "none"
    max_violation: float = 0.0
    formulate_seconds: float = 0.0
    solve_seconds: float = 0.0
    merge_seconds: float = 0.0


@dataclass
class HydraResult:
    """The outcome of a Hydra run: the database summary plus per-view
    diagnostics (used by the experiment harness)."""

    summary: DatabaseSummary
    view_reports: Dict[str, ViewBuildReport] = field(default_factory=dict)
    total_seconds: float = 0.0
    #: Time the build spent blocked on the solver after its last view LP
    #: was submitted (waiting for the pool, then stitching).  Solves that
    #: finished while later LPs were being formulated are not in it, so
    #: ``sum(formulate_seconds) + lp_wall_seconds`` never counts the same
    #: wall-clock twice.  Per-view ``solve_seconds`` overlap both each other
    #: and formulation, so their sum overstates the elapsed time.
    lp_wall_seconds: float = 0.0
    #: Aggregate solver diagnostics: component count, cache hits/misses and
    #: ``lp_wall_seconds``.
    solver_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def lp_variable_counts(self) -> Dict[str, int]:
        """LP variables per relation (Figure 12 / 17 metric)."""
        return {name: report.lp_variables for name, report in self.view_reports.items()}

    def lp_seconds(self) -> float:
        """LP formulation + solving wall-clock (Figure 13 metric): the
        formulation time plus the wait for the solves still running after
        it.  Per-view decomposition at submit is not counted."""
        formulate = sum(r.formulate_seconds for r in self.view_reports.values())
        return formulate + self.lp_wall_seconds

    def cache_counters(self) -> Dict[str, int]:
        """Cache/serving counters of this build: LP component cache hits and
        misses, whether the whole summary came from a store, and the store's
        on-disk footprint (zero when no store is attached)."""
        return {
            "hits": int(self.solver_stats.get("cache_hits", 0)),
            "misses": int(self.solver_stats.get("cache_misses", 0)),
            "summary_store_hits": int(self.solver_stats.get("summary_store_hits", 0)),
            "store_bytes": int(self.solver_stats.get("store_bytes", 0)),
        }


class Hydra:
    """The Hydra data regenerator.

    Parameters
    ----------
    schema / config:
        The client schema and the :class:`~repro.api.RegenConfig` whose
        pipeline knobs (partitioning strategy and budgets, solver workers,
        strict mode) this pipeline reads; ``None`` means the defaults.
    store:
        Optional :class:`~repro.service.store.SummaryStore`.  When given,
        builds whose ``(schema, constraints, relations)`` fingerprint is
        already stored skip the whole pipeline (zero LP solves), fresh builds
        are persisted, and the solver's component-solution cache is backed by
        the store so solutions survive restarts and are shared across worker
        processes.
    """

    def __init__(self, schema: Schema, config: Optional[RegenConfig] = None,
                 store: Optional["SummaryStore"] = None) -> None:
        self.schema = schema
        self.config = config or RegenConfig()
        self.store = store
        self.preprocessor = Preprocessor(schema)
        self.solver = ParallelLPSolver(
            workers=self.config.workers,
            strict=self.config.strict,
            cache_backend=store.solution_cache() if store is not None else None,
        )
        #: Each relation's constraints at its last build by this pipeline;
        #: views whose constraints differ formulate first (see build_summary).
        self._built_constraints: Dict[str, List[CardinalityConstraint]] = {}

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def request_fingerprint(self, ccs: ConstraintSet,
                            relations: Optional[Sequence[str]] = None) -> str:
        """The store fingerprint of one build request.

        Includes the result-affecting configuration (strategy, the solver's
        integrality and MILP size/time limits, partitioning budgets) so a
        store shared between differently-configured pipelines never serves
        one configuration's summary as another's; performance knobs
        (``workers``) do not change the result and are excluded.
        """
        from repro.service.fingerprint import workload_fingerprint

        config = self.config
        return workload_fingerprint(
            self.schema, ccs, relations=relations,
            # The solver's fixed integrality and MILP limits change what a
            # build produces, so they are part of the profile too.
            profile=[
                "hydra", config.strategy, True,
                MILP_VARIABLE_LIMIT, MILP_TIME_LIMIT,
                config.max_grid_variables, config.max_region_variables,
            ],
        )

    def component_manifest(self, ccs: ConstraintSet,
                           relations: Optional[Sequence[str]] = None,
                           ) -> Dict[str, List[str]]:
        """Per-relation canonical component keys of a build request, without
        solving anything.

        Preprocessing and LP formulation cost time independent of the data
        size; the returned keys are exactly the solver's decomposition keys
        (:func:`repro.lp.decompose.component_key`), the same keys a build
        records in :attr:`DatabaseSummary.component_keys`.
        """
        names = list(relations) if relations is not None else list(self.schema.relation_names)
        by_relation = ccs.by_relation()
        manifest: Dict[str, List[str]] = {}
        for relation in names:
            task = self.preprocessor.build_task(relation, by_relation.get(relation, []))
            if not task.subviews:
                manifest[relation] = []
                continue
            view_lp = formulate_view_lp(
                task,
                strategy=self.config.strategy,
                max_grid_variables=self.config.max_grid_variables,
                max_region_variables=self.config.max_region_variables,
            )
            manifest[relation] = sorted(
                component.key for component in decompose_model(view_lp.model).components
            )
        return manifest

    def build_summary(self, ccs: ConstraintSet,
                      relations: Optional[Sequence[str]] = None) -> HydraResult:
        """Run the full vendor-side pipeline and return the database summary.

        Parameters
        ----------
        ccs:
            The client's cardinality constraints.
        relations:
            The relations to regenerate; defaults to every relation of the
            schema (relations without constraints receive a single-row
            summary carrying their nominal row count).
        """
        started = time.perf_counter()
        fingerprint: Optional[str] = None
        if self.store is not None:
            fingerprint = self.request_fingerprint(ccs, relations)
            cached = self.store.get_summary(fingerprint)
            if cached is not None:
                return HydraResult(
                    summary=cached,
                    total_seconds=time.perf_counter() - started,
                    solver_stats={
                        "components_solved": 0,
                        "cache_hits": 0,
                        "cache_misses": 0,
                        "lp_wall_seconds": 0.0,
                        "summary_store_hits": 1,
                        "store_bytes": self.store.store_bytes(),
                    },
                )
        names = list(relations) if relations is not None else list(self.schema.relation_names)
        by_relation = ccs.by_relation()

        # Phase 1: preprocess every relation.
        view_summaries: Dict[str, ViewSummary] = {}
        reports: Dict[str, ViewBuildReport] = {}
        tasks: Dict[str, ViewTask] = {}
        for relation in names:
            constraints = by_relation.get(relation, [])
            task = self.preprocessor.build_task(relation, constraints)
            tasks[relation] = task
            reports[relation] = ViewBuildReport(
                relation=relation,
                num_subviews=len(task.subviews),
                num_constraints=len(task.constraints),
            )
            if not task.subviews:
                view_summaries[relation] = instantiate_view_summary(
                    task.view, None, task.total_rows
                )

        # Phase 2: formulate each view LP and submit it to a solver batch at
        # once, so its components solve on the worker pool while the next LP
        # is formulated.  Views whose constraints changed since this pipeline
        # last built them go first, in a batch of their own: a drifted
        # workload's new components then solve while the unchanged views are
        # formulated and merged, so a drift costs about the same whichever
        # view it hits.  Within each group, views with few sub-views
        # formulate fastest and go first: a long solve among them then
        # overlaps the slow formulations of the many-sub-view fact tables.
        lp_order = [relation for relation in names if tasks[relation].subviews]
        by_size = sorted(lp_order, key=lambda r: len(tasks[r].subviews))
        built = self._built_constraints
        changed = [r for r in by_size if by_relation.get(r, []) != built.get(r)]
        unchanged = [r for r in by_size if by_relation.get(r, []) == built.get(r)]
        built.update((relation, by_relation.get(relation, [])) for relation in names)
        view_lps: Dict[str, ViewLP] = {}
        decompositions: Dict[str, Decomposition] = {}
        merged: Dict[str, ViewSummary] = {}
        lp_wall_seconds = 0.0
        stats_before = (self.solver.stats.components_solved,
                        self.solver.stats.cache_hits,
                        self.solver.stats.cache_misses)
        with self.solver.batch() as changed_batch, self.solver.batch() as unchanged_batch:
            groups = [(group, batch) for group, batch in
                      ((changed, changed_batch), (unchanged, unchanged_batch)) if group]
            for group, batch in groups:
                for relation in group:
                    report = reports[relation]
                    t0 = time.perf_counter()
                    view_lp = formulate_view_lp(
                        tasks[relation],
                        strategy=self.config.strategy,
                        max_grid_variables=self.config.max_grid_variables,
                        max_region_variables=self.config.max_region_variables,
                    )
                    report.formulate_seconds = time.perf_counter() - t0
                    report.lp_variables = view_lp.num_variables
                    report.lp_constraints = view_lp.model.num_constraints
                    view_lps[relation] = view_lp
                    decompositions[relation] = batch.submit(view_lp.model)

            # Phase 3: align, merge and instantiate each view's summary, the
            # unchanged views (their components cache hits) first.
            for group, batch in reversed(groups):
                t1 = time.perf_counter()
                solutions = batch.results()
                lp_wall_seconds += time.perf_counter() - t1
                for relation, solution in zip(group, solutions):
                    report = reports[relation]
                    report.solve_seconds = solution.solve_seconds
                    report.solver_method = solution.method
                    report.max_violation = solution.max_violation
                    merged[relation] = self._merge_view(
                        tasks[relation], view_lps[relation], solution, report
                    )
        view_summaries.update((relation, merged[relation]) for relation in lp_order)

        consistency = enforce_referential_consistency(
            view_summaries, self.preprocessor.views, self.schema
        )

        summary = DatabaseSummary()
        for relation in names:
            summary.relations[relation] = build_relation_summary(
                relation, view_summaries, self.preprocessor.views, self.schema
            )
        summary.extra_tuples = dict(consistency.extra_tuples)
        summary.lp_variable_counts = {
            name: report.lp_variables for name, report in reports.items()
        }
        summary.component_keys = {
            relation: (
                sorted(c.key for c in decompositions[relation].components)
                if relation in decompositions else []
            )
            for relation in names
        }
        summary.timings = {
            "total_seconds": time.perf_counter() - started,
            "lp_seconds": sum(r.formulate_seconds for r in reports.values()) + lp_wall_seconds,
            "lp_wall_seconds": lp_wall_seconds,
            "merge_seconds": sum(r.merge_seconds for r in reports.values()),
        }
        # Stats are reported as this build's deltas (the solver object — and
        # its cache — lives across builds).  The counters themselves are
        # race-free, but when several builds share one Hydra concurrently
        # (RegenerationService with max_workers > 1) the attribution is
        # best-effort: a delta may include a concurrent build's solves.
        stats = self.solver.stats
        solver_stats = {
            "components_solved": stats.components_solved - stats_before[0],
            "cache_hits": stats.cache_hits - stats_before[1],
            "cache_misses": stats.cache_misses - stats_before[2],
            "lp_wall_seconds": lp_wall_seconds,
        }
        if self.store is not None and fingerprint is not None:
            self.store.put_summary(fingerprint, summary, meta={
                "schema": self.schema.name,
                "constraints": len(ccs),
                "relations": len(names),
            })
            solver_stats["summary_store_hits"] = 0
            solver_stats["store_bytes"] = self.store.store_bytes()
        return HydraResult(
            summary=summary,
            view_reports=reports,
            total_seconds=time.perf_counter() - started,
            lp_wall_seconds=lp_wall_seconds,
            solver_stats=solver_stats,
        )

    def count_lp_variables(self, ccs: ConstraintSet,
                           strategy: Optional[str] = None) -> Dict[str, int]:
        """Count LP variables per relation without solving (Figures 12/17)."""
        strategy = strategy or self.config.strategy
        counts: Dict[str, int] = {}
        for relation, constraints in ccs.by_relation().items():
            task = self.preprocessor.build_task(relation, constraints)
            counts[relation] = count_lp_variables(
                task, strategy,
                max_region_variables=self.config.max_region_variables,
            )
        return counts

    # ------------------------------------------------------------------ #
    # per-view processing
    # ------------------------------------------------------------------ #
    def _merge_view(self, task: ViewTask, view_lp: ViewLP, solution: LPSolution,
                    report: ViewBuildReport) -> ViewSummary:
        """Align and merge one view's sub-view solutions into its summary."""
        t0 = time.perf_counter()
        per_subview = subview_solutions(view_lp, solution)
        order = task.merge_order()
        view_solution = merge_subview_solutions(
            task.relation, per_subview, order,
            aligned_attributes=view_lp.aligned_attributes,
        )
        summary = instantiate_view_summary(task.view, view_solution, task.total_rows)
        report.merge_seconds = time.perf_counter() - t0
        return summary
