"""The :class:`Session` facade — one entry point for the whole pipeline.

The paper's workflow is one conceptual pipeline: extract cardinality
constraints at the client, summarize them at the vendor, regenerate data on
demand, verify volumetric similarity.  ``Session`` exposes exactly those
four verbs over one schema, one :class:`~repro.api.RegenConfig` and one
:class:`~repro.service.RegenerationService`, of which it is a thin client::

    session = Session(schema, config=RegenConfig(workers=4))
    constraints = session.extract(client_db, workload)
    handle = session.summarize(constraints)            # SummaryHandle
    database = session.regenerate(handle, scale=10.0)  # Database (lazy)
    report = session.verify(handle, scale=10.0)        # SimilarityReport

``session.service`` (also returned by ``session.serve()``) is the one
copy of the vendor pipeline: summarize runs through its worker pool and
store, regenerate and verify are its ``database`` and ``verify`` reads,
and epochs (``resummarize``/``diff``/``lineage``) and fingerprints are its
methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:  # service imports stay lazy to keep import order flexible
    from repro.service.service import RegenerationService
    from repro.service.store import SummaryStore

from repro.api.config import RegenConfig
from repro.constraints.workload import ConstraintSet
from repro.engine.database import Database
from repro.errors import ServiceError
from repro.metrics.similarity import SimilarityReport
from repro.schema.schema import Schema
from repro.summary.relation_summary import DatabaseSummary
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

    def summarize(self, constraints: ConstraintSet) -> SummaryHandle:
        """Vendor side: build (or fetch warm) the database summary.

        The request is submitted to :attr:`service`, so a cold build runs on
        its worker pool under its admission caps and a repeated request is
        served warm from its store.  The handle's ``fingerprint`` is the
        fingerprint of its ``constraints``, so :meth:`verify` can resolve
        either one to the same stored summary.
        """
        ticket = self.service.submit(constraints)
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

    def regenerate(self, handle: SummaryHandle, scale: float = 1.0,
                   batch_size: Optional[int] = None) -> Database:
        """The handle's database, regenerated lazily by :attr:`service`.

        ``scale`` multiplies the regenerated volume; nothing is generated
        until first scan (see
        :meth:`~repro.service.RegenerationService.database`).
        """
        return self.service.database(handle.fingerprint, batch_size,
                                     scale=scale)

    def verify(self, handle: SummaryHandle,
               constraints: Optional[ConstraintSet] = None,
               scale: float = 1.0) -> SimilarityReport:
        """Volumetric-similarity check of the handle's regenerated database.

        The handle resolves by its fingerprint, so nothing is fingerprinted
        again.  ``constraints`` defaults to the ones the handle was
        summarized from, scaled by ``scale``; explicit ``constraints`` are
        evaluated as given (see
        :meth:`~repro.service.RegenerationService.verify`).  A handle loaded
        from the store carries no constraints, so it needs explicit ones.
        :func:`~repro.metrics.similarity.evaluate_on_summary` is the
        analytic (engine-free) check of a summary.
        """
        from repro.service.service import check_scale

        check_scale(scale)
        if constraints is None and handle.constraints is not None:
            constraints = handle.constraints if scale == 1.0 \
                else handle.constraints.scaled(scale)
        return self.service.verify(handle.fingerprint, constraints,
                                   scale=scale)

    def serve(self) -> "RegenerationService":
        """The session's concurrent serving front-end: :attr:`service` itself.

        Submissions and session-built summaries share one store, one worker
        pool and one metrics registry.  Closing it (for instance by leaving
        a ``with session.serve()`` block) ends the session's cold builds.
        """
        return self.service
