"""The :class:`Session` facade — one entry point for the whole pipeline.

The paper's workflow is one conceptual pipeline: extract cardinality
constraints at the client, summarize them at the vendor, regenerate data on
demand, verify volumetric similarity.  ``Session`` exposes exactly those
four verbs over one schema, one :class:`~repro.api.RegenConfig` and one
optional :class:`~repro.service.SummaryStore`, routing engine selection
through the pluggable backend registry::

    session = Session(schema, config=RegenConfig(workers=4))
    constraints = session.extract(client_db, workload)
    handle = session.summarize(constraints)            # SummaryHandle
    database = session.regenerate(handle, scale=10.0)  # DatabaseHandle (lazy)
    report = session.verify(database)                  # SimilarityReport

``session.serve()`` lifts the same configuration into a concurrent
:class:`~repro.service.RegenerationService` front-end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

if TYPE_CHECKING:  # service imports stay lazy to keep import order flexible
    from repro.service.service import RegenerationService
    from repro.service.store import SummaryStore

from repro.api.backends import PipelineBackend, create_backend
from repro.api.config import RegenConfig
from repro.constraints.workload import ConstraintSet
from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.engine.plan import AnnotatedQueryPlan
from repro.engine.table import Table
from repro.errors import ServiceError
from repro.metrics.similarity import (
    SimilarityReport,
    evaluate_on_summary,
    evaluate_with_executor,
)
from repro.schema.schema import Schema
from repro.summary.relation_summary import DatabaseSummary
from repro.tuplegen.generator import TupleGenerator, dynamic_database
from repro.workload.query import Workload


@dataclass(frozen=True)
class EpochDiff:
    """Per-component reuse report between two stored workload epochs.

    ``reused`` components are shared by both epochs (an incremental build of
    ``b`` from ``a`` serves them from cache with zero solves), ``added``
    exist only in epoch ``b``, ``retired`` only in epoch ``a``.
    """

    fingerprint_a: str
    fingerprint_b: str
    reused: tuple
    added: tuple
    retired: tuple

    @property
    def total(self) -> int:
        """Component count of epoch ``b``."""
        return len(self.reused) + len(self.added)

    @property
    def reuse_ratio(self) -> float:
        """Fraction of epoch ``b``'s components shared with epoch ``a``."""
        return len(self.reused) / self.total if self.total else 1.0


@dataclass(frozen=True)
class SummaryHandle:
    """A built database summary plus everything needed to reuse it.

    Carries the summary itself, the canonical store ``fingerprint`` of the
    request (engine- and config-namespaced), the constraints it was built
    from, and the backend's solver/timing ``diagnostics``.  ``from_store``
    records provenance: ``True`` when the build was served warm without
    running the pipeline.
    """

    summary: DatabaseSummary
    fingerprint: str
    engine: str
    config: RegenConfig
    schema: Schema
    constraints: Optional[ConstraintSet] = None
    diagnostics: Mapping[str, object] = field(default_factory=dict)
    from_store: bool = False

    def total_rows(self) -> int:
        """Tuples the summary regenerates to."""
        return self.summary.total_rows()

    def nbytes(self) -> int:
        """Approximate summary size in bytes."""
        return self.summary.nbytes()


class DatabaseHandle:
    """A lazily regenerated database, ready to execute and stream.

    Wraps a stream-attached :class:`~repro.engine.Database`: nothing is
    generated until first scan, and :meth:`execute` runs the configured
    (pipelined by default) executor so relations are never materialised
    however large the regenerated scale is.
    """

    def __init__(self, handle: SummaryHandle, database: Database,
                 summary: DatabaseSummary, config: RegenConfig,
                 batch_size: int, scale: float) -> None:
        self.handle = handle
        self.database = database
        #: The (possibly scaled) summary this database regenerates from.
        self.summary = summary
        self.config = config
        self.batch_size = batch_size
        #: Scale factor relative to the handle's summary (1.0 = as built).
        self.scale = scale
        #: Executor statistics of the most recent :meth:`execute` call.
        self.executor_stats = None

    def execute(self, workload: Workload,
                mode: Optional[str] = None) -> List[AnnotatedQueryPlan]:
        """Execute an AQP workload over the regenerated database."""
        executor = Executor(self.database, mode=mode or self.config.executor_mode)
        plans = executor.execute_workload(workload)
        self.executor_stats = executor.stats
        return plans

    def stream(self, relation: str, batch_size: Optional[int] = None,
               start_row: int = 1, stop_row: Optional[int] = None,
               ) -> Iterator[Table]:
        """Stream one relation in columnar batches (independent cursor)."""
        generator = TupleGenerator(self.summary.relation(relation))
        return generator.stream_range(start_row, stop_row,
                                      batch_size=batch_size or self.batch_size)

    def row_counts(self) -> Dict[str, int]:
        """Rows per relation — computed from the summary, nothing generated."""
        return self.database.row_counts()

    def materialize(self, relation: str) -> Table:
        """Materialise one relation as a columnar table (costs O(rows))."""
        return TupleGenerator(self.summary.relation(relation)).materialize()


class Session:
    """One configured regeneration pipeline: schema + config + store.

    Parameters
    ----------
    schema:
        The (anonymised) client schema.
    config:
        A :class:`RegenConfig`; defaults are the paper's Hydra settings.
    store:
        Optional :class:`~repro.service.SummaryStore` (or a directory path to
        open one at).  When given, summaries and LP component solutions are
        persisted and warm requests skip the pipeline.
    """

    def __init__(self, schema: Schema, config: Optional[RegenConfig] = None,
                 store: Union["SummaryStore", str, Path, None] = None) -> None:
        self.schema = schema
        self.config = config or RegenConfig()
        # Observability knobs apply to standalone sessions exactly as they
        # do to `serve()`: one registry per session, opt-in trace sampling,
        # opt-in JSON log handler.
        from repro.obs.logging import configure_logging
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import get_tracer

        self.registry = MetricsRegistry(enabled=self.config.obs_enabled)
        if self.config.trace_sample > 0.0:
            get_tracer().configure(sample=self.config.trace_sample)
        if self.config.log_format == "json":
            configure_logging(log_format="json")
        if store is None and self.config.store_url:
            # A leader URL without an explicit store: mount the network
            # backend with a memory-only local replica.
            from repro.cluster.factory import open_store

            store = open_store(None, config=self.config, registry=self.registry)
        elif store is not None and not hasattr(store, "get_summary"):
            from repro.cluster.factory import open_store

            # A path opens whichever backend the config's cluster knobs ask
            # for (plain disk by default) and inherits the session's
            # lifecycle caps, so `Session` and `Session.serve()` GC with the
            # same policy.
            store = open_store(store, config=self.config,
                               registry=self.registry)
        self.store = store
        self._backends: Dict[str, PipelineBackend] = {}

    # ------------------------------------------------------------------ #
    # the four pipeline verbs
    # ------------------------------------------------------------------ #
    def extract(self, database: Database, workload: Workload,
                include_sizes: bool = True) -> ConstraintSet:
        """Client side: execute ``workload`` on ``database`` and derive CCs.

        Runs through the configured executor mode (pipelined by default, so
        lazy client databases are never materialised).
        """
        from repro.hydra.client import extract_constraints

        package = extract_constraints(database, workload,
                                      include_sizes=include_sizes,
                                      executor_mode=self.config.executor_mode)
        return package.constraints

    def summarize(self, constraints: ConstraintSet,
                  engine: Optional[str] = None,
                  relations: Optional[Sequence[str]] = None) -> SummaryHandle:
        """Vendor side: build (or fetch warm) the database summary."""
        backend = self._backend(engine)
        fingerprint = backend.fingerprint(constraints, relations)
        build = backend.build(constraints, relations)
        return SummaryHandle(
            summary=build.summary,
            fingerprint=fingerprint,
            engine=backend.name,
            config=self.config,
            schema=self.schema,
            constraints=constraints,
            diagnostics=build.diagnostics,
            from_store=build.from_store,
        )

    def resummarize(self, base_fingerprint: str, constraints: ConstraintSet,
                    engine: Optional[str] = None,
                    relations: Optional[Sequence[str]] = None) -> SummaryHandle:
        """Incrementally re-summarize a drifted workload against a warm epoch.

        Diffs the drifted workload's component manifest against the base
        epoch's provenance, builds reusing every unchanged component's cached
        solution verbatim (only changed/new constraint-graph components are
        solved) and links the new epoch to its parent in the store.  The
        result is byte-identical to a cold :meth:`summarize` of the drifted
        workload; the handle's ``diagnostics`` carry the reuse report
        (``parent_fingerprint``, ``components_reused`` / ``_solved`` /
        ``_retired``).
        """
        if self.store is None:
            raise ServiceError("resummarize needs a store holding the base epoch")
        base_summary = self.store.get_summary(base_fingerprint)
        if base_summary is None:
            raise ServiceError(
                f"no stored summary for base fingerprint {base_fingerprint[:12]}…;"
                " summarize the base workload first"
            )
        from repro.service.fingerprint import manifest_diff

        backend = self._backend(engine)
        manifest_fn = getattr(backend.pipeline, "component_manifest", None)
        new_manifest: List[str] = []
        if manifest_fn is not None:
            per_relation = manifest_fn(constraints, relations)
            new_manifest = sorted(
                {key for keys in per_relation.values() for key in keys}
            )
        diff = manifest_diff(base_summary.component_manifest(), new_manifest)
        fingerprint = backend.fingerprint(constraints, relations)
        build = backend.build(constraints, relations)
        if fingerprint != base_fingerprint:
            link = getattr(self.store, "link_parent", None)
            if link is not None:
                link(fingerprint, base_fingerprint)
        # A drifted epoch already in the store ran nothing: every component
        # was reused (the service counts the same way).
        solved = 0 if build.from_store else len(diff.added)
        diagnostics = dict(build.diagnostics)
        diagnostics.update({
            "parent_fingerprint": base_fingerprint,
            "components_reused": diff.total - solved,
            "components_solved": solved,
            "components_retired": len(diff.retired),
        })
        return SummaryHandle(
            summary=build.summary,
            fingerprint=fingerprint,
            engine=backend.name,
            config=self.config,
            schema=self.schema,
            constraints=constraints,
            diagnostics=diagnostics,
            from_store=build.from_store,
        )

    def diff(self, fingerprint_a: str, fingerprint_b: str) -> EpochDiff:
        """Per-component reuse report between two stored workload epochs."""
        if self.store is None:
            raise ServiceError("diff needs a store holding both epochs")
        from repro.service.fingerprint import manifest_diff

        summaries = []
        for fingerprint in (fingerprint_a, fingerprint_b):
            summary = self.store.get_summary(fingerprint)
            if summary is None:
                raise ServiceError(
                    f"no stored summary for fingerprint {fingerprint[:12]}…;"
                    " cannot diff epochs"
                )
            summaries.append(summary)
        report = manifest_diff(summaries[0].component_manifest(),
                               summaries[1].component_manifest())
        return EpochDiff(
            fingerprint_a=fingerprint_a,
            fingerprint_b=fingerprint_b,
            reused=tuple(report.reused),
            added=tuple(report.added),
            retired=tuple(report.retired),
        )

    def lineage(self, fingerprint: str) -> List[Mapping[str, object]]:
        """The epoch chain ending at ``fingerprint`` (newest first)."""
        if self.store is None:
            raise ServiceError("lineage needs a store")
        walk = getattr(self.store, "list_lineage", None)
        if walk is None:
            return [{"fingerprint": fingerprint,
                     "present": self.store.get_summary(fingerprint) is not None}]
        return walk(fingerprint)

    def load(self, fingerprint: str) -> SummaryHandle:
        """Rehydrate a handle for a fingerprint already in the store."""
        if self.store is None:
            raise ServiceError("session has no store to load summaries from")
        summary = self.store.get_summary(fingerprint)
        if summary is None:
            raise ServiceError(
                f"no stored summary for fingerprint {fingerprint[:12]}…"
            )
        return SummaryHandle(summary=summary, fingerprint=fingerprint,
                             engine=self.config.engine, config=self.config,
                             schema=self.schema, from_store=True)

    def regenerate(self, handle: Union[SummaryHandle, DatabaseSummary],
                   scale: Optional[float] = None,
                   batch_size: Optional[int] = None) -> DatabaseHandle:
        """Regenerate a lazy database from a summary handle.

        ``scale`` multiplies the regenerated volume (summary-row counts are
        scaled and foreign keys remapped — see
        :func:`repro.codd.scaling.scale_summary`); the returned database is
        stream-attached, so nothing is generated until first scan.
        """
        if isinstance(handle, DatabaseSummary):
            handle = SummaryHandle(summary=handle, fingerprint="",
                                   engine=self.config.engine,
                                   config=self.config, schema=self.schema)
        summary = handle.summary
        if scale is not None and scale != 1.0:
            from repro.codd.scaling import scale_summary

            summary = scale_summary(summary, self.schema, scale)
        batch = batch_size or self.config.batch_size
        database = dynamic_database(
            summary, self.schema, batch_size=batch,
            name=f"regen-{handle.fingerprint[:12] or handle.engine}",
        )
        return DatabaseHandle(handle, database, summary, self.config,
                              batch_size=batch, scale=scale or 1.0)

    def verify(self, handle: Union[SummaryHandle, DatabaseHandle],
               constraints: Optional[ConstraintSet] = None,
               mode: Optional[str] = None) -> SimilarityReport:
        """Volumetric-similarity check of a summary or regenerated database.

        A :class:`SummaryHandle` is evaluated analytically (scale-free); a
        :class:`DatabaseHandle` is evaluated through the engine, streaming
        run batches by default (one run per summary row, so the cost does
        not grow with the regeneration scale).  ``constraints`` defaults to
        the ones the handle was summarized from — scaled by the database's
        regeneration factor (the Section 7.4 arithmetic), so a 10x
        regeneration verifies against 10x the cardinalities.  Explicit
        ``constraints`` are evaluated as given.
        """
        if constraints is None:
            source = handle.handle if isinstance(handle, DatabaseHandle) else handle
            constraints = source.constraints
            if constraints is None:
                raise ServiceError(
                    "verify needs an explicit constraint set: this handle was"
                    " not built from one (e.g. loaded from the store)"
                )
            if isinstance(handle, DatabaseHandle) and handle.scale != 1.0:
                from repro.codd.scaling import scale_constraints

                constraints = scale_constraints(constraints, handle.scale)
        if isinstance(handle, DatabaseHandle):
            executor = Executor(handle.database,
                                mode=mode or self.config.executor_mode)
            report = evaluate_with_executor(constraints, executor)
            handle.executor_stats = executor.stats
            return report
        return evaluate_on_summary(constraints, handle.summary, self.schema)

    # ------------------------------------------------------------------ #
    # serving and identity
    # ------------------------------------------------------------------ #
    def serve(self) -> "RegenerationService":
        """Lift this session into a concurrent serving front-end.

        The service shares the session's schema, store and config, so its
        engine, worker pool, admission caps and store lifecycle knobs are
        the config's, and submissions and session-built summaries hit the
        same fingerprints and the same GC policy.
        """
        from repro.service.service import RegenerationService

        return RegenerationService(self.schema, store=self.store,
                                   config=self.config)

    def fingerprint(self, constraints: ConstraintSet,
                    relations: Optional[Sequence[str]] = None,
                    engine: Optional[str] = None) -> str:
        """The store/dedup fingerprint this session assigns to a request."""
        return self._backend(engine).fingerprint(constraints, relations)

    def _backend(self, engine: Optional[str] = None) -> PipelineBackend:
        name = engine or self.config.engine
        backend = self._backends.get(name)
        if backend is None:
            backend = create_backend(name, self.schema, self.config, self.store)
            # Re-home the engine's solver telemetry onto the session registry
            # so one export covers store + solver (the service does the same).
            from repro.lp.solver import SolverStats

            solver = getattr(backend.pipeline, "solver", None)
            if solver is not None and isinstance(getattr(solver, "stats", None),
                                                SolverStats):
                solver.stats = SolverStats(registry=self.registry)
            self._backends[name] = backend
        return backend
