"""The :class:`Session` facade — one entry point for the whole pipeline.

The paper's workflow is one conceptual pipeline: extract cardinality
constraints at the client, summarize them at the vendor, regenerate data on
demand, verify volumetric similarity.  ``Session`` exposes exactly those
four verbs over one schema, one :class:`~repro.api.RegenConfig` and one
:class:`~repro.service.RegenerationService`, of which it is a thin client::

    session = Session(schema, config=RegenConfig(workers=4))
    constraints = session.extract(client_db, workload)
    handle = session.summarize(constraints)            # SummaryHandle
    database = session.regenerate(handle, scale=10.0)  # DatabaseHandle (lazy)
    report = session.verify(database)                  # SimilarityReport

``session.service`` (also returned by ``session.serve()``) is the one
copy of the vendor pipeline: summarize runs through its worker pool and
store, and epochs (``resummarize``/``diff``/``lineage``) and fingerprints
are its methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import (TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence,
                    Union)

if TYPE_CHECKING:  # service imports stay lazy to keep import order flexible
    from repro.service.service import RegenerationService
    from repro.service.store import SummaryStore

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
class SummaryHandle:
    """A built database summary plus everything needed to reuse it.

    Carries the summary itself, the canonical store ``fingerprint`` of the
    request (config-namespaced) and the constraints it was built from.
    ``from_store`` records provenance: ``True`` when the build was served
    warm without running the pipeline.
    """

    summary: DatabaseSummary
    fingerprint: str
    config: RegenConfig
    schema: Schema
    constraints: Optional[ConstraintSet] = None
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
    """One configured regeneration pipeline: a client of one service.

    Parameters
    ----------
    schema:
        The (anonymised) client schema.
    config:
        A :class:`RegenConfig`; defaults are the paper's Hydra settings.
    store:
        Optional store backend or directory path, opened by the service.
        Without one the service keeps summaries and LP component solutions
        in a private temporary store directory, deleted with the store, so a
        repeated request is warm either way; with one they are persisted and
        survive the process.
    """

    def __init__(self, schema: Schema, config: Optional[RegenConfig] = None,
                 store: Union["SummaryStore", str, Path, None] = None) -> None:
        # Imported here: the service module imports ``repro.api.config``,
        # whose package imports this module.
        from repro.service.service import RegenerationService

        self.schema = schema
        #: The one pipeline surface: builds, fingerprints, epochs and
        #: telemetry all live here.
        self.service = RegenerationService(schema, store, config)
        self.config = self.service.config
        self.store = self.service.store
        self.registry = self.service.registry

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
                  relations: Optional[Sequence[str]] = None) -> SummaryHandle:
        """Vendor side: build (or fetch warm) the database summary.

        The request is submitted to :attr:`service`, so a cold build runs on
        its worker pool under its admission caps and a repeated request is
        served warm from its store.
        """
        ticket = self.service.submit(constraints, relations)
        return SummaryHandle(
            summary=ticket.result(),
            fingerprint=ticket.fingerprint,
            config=self.config,
            schema=self.schema,
            constraints=constraints,
            from_store=ticket.warm,
        )

    def load(self, fingerprint: str) -> SummaryHandle:
        """Rehydrate a handle for a fingerprint already in the store."""
        summary = self.store.get_summary(fingerprint)
        if summary is None:
            raise ServiceError(
                f"no stored summary for fingerprint {fingerprint[:12]}…"
            )
        return SummaryHandle(summary=summary, fingerprint=fingerprint,
                             config=self.config, schema=self.schema,
                             from_store=True)

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
                                   config=self.config, schema=self.schema)
        summary = handle.summary
        if scale is not None and scale != 1.0:
            from repro.codd.scaling import scale_summary

            summary = scale_summary(summary, self.schema, scale)
        batch = batch_size or self.config.batch_size
        database = dynamic_database(
            summary, self.schema, batch_size=batch,
            name=f"regen-{handle.fingerprint[:12] or 'summary'}",
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

    def serve(self) -> "RegenerationService":
        """The session's concurrent serving front-end: :attr:`service` itself.

        Submissions and session-built summaries share one store, one worker
        pool and one metrics registry.  Closing it (for instance by leaving
        a ``with session.serve()`` block) ends the session's cold builds.
        """
        return self.service
