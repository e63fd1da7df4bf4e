"""The concurrent regeneration serving front-end.

:class:`RegenerationService` sits in front of the
:class:`~repro.hydra.pipeline.Hydra` pipeline and a
:class:`~repro.service.store.SummaryStore` and turns one-shot summary builds
into a request/serve loop:

* ``submit(workload, tenant=...)`` returns a :class:`Ticket` immediately;
  identical requests already in flight are *single-flighted* — they attach
  to the running build instead of triggering a second pipeline run;
* warm requests (fingerprint already in the store) never touch the LP
  solver: the summary is read from the store's memory/disk layers;
* cold builds go through a **fair admission queue**: FIFO within a
  tenant, round-robin across tenants for dispatch, per-tenant
  ``max_pending_per_tenant`` caps so one tenant's cold burst can never
  starve the others (warm requests and in-flight dedup are always
  admitted);
* ``stream(...)`` hands out vectorised tuple batches for any relation of a
  regenerated database; many consumers can stream concurrently, each with
  an independent cursor, optionally over disjoint row shards.  The backing
  store entry is pinned from the moment the cursor is handed out, so GC
  never evicts it under a live stream;
* ``database(...)``, ``verify(...)`` and ``execute_workload(...)`` run the
  engine over the regenerated database — the one regenerate-and-verify
  path.  Every read takes a ``scale``: a scaled regeneration is a view of
  the stored summary, never stored itself;
* one optional background thread periodically
  :meth:`~repro.service.store.SummaryStore.compact`-s the store
  (``gc_interval``) and reaps idle stream cursors
  (``cursor_idle_timeout``);
* ``service_stats()`` builds the serving counters (hits, misses, inflight
  dedups, pipeline runs and failures, queue depth, store
  evictions/expirations) and the per-tenant admission rows in one pass;
  ``stats()`` is its flat counter dict.
"""

from __future__ import annotations

import math
import threading
import time
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.config import RegenConfig
from repro.codd.scaling import scale_summary
from repro.constraints.workload import ConstraintSet
from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.engine.plan import AnnotatedQueryPlan
from repro.engine.table import RunBatch, Table
from repro.errors import (
    ConfigError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.hydra.pipeline import Hydra
from repro.lp.solver import SolverStats
from repro.metrics.similarity import SimilarityReport, evaluate_with_executor
from repro.obs.logging import configure_logging, get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import get_tracer, span as trace_span
from repro.schema.schema import Schema
from repro.service.fingerprint import ManifestDiff, manifest_diff
from repro.service.store import SummaryStore, open_store
from repro.summary.relation_summary import DatabaseSummary
from repro.tuplegen.generator import TupleGenerator
from repro.workload.query import Workload

#: Tenant tag assigned to submissions that do not name one.
DEFAULT_TENANT = "default"

#: Encodes the tuples with primary keys ``start..stop`` (1-based, inclusive).
BatchEncoder = Callable[[int, int], bytes]

logger = get_logger("service")

#: The per-tenant build outcomes tracked by the fair-admission queue (the
#: label values of ``repro_service_tenant_builds_total``).
_TENANT_OUTCOMES = ("admitted", "rejected", "completed", "failed")


def check_scale(scale: float) -> None:
    """Raise :class:`ServiceError` unless ``scale`` (a regeneration's size
    factor) is a positive finite number."""
    if not (math.isfinite(scale) and scale > 0):
        raise ServiceError(f"scale must be a positive finite number, got {scale!r}")


class _Flight:
    """One in-progress (or finished) summary build."""

    __slots__ = ("event", "summary", "error", "warm", "tenant")

    def __init__(self, summary: Optional[DatabaseSummary] = None,
                 warm: bool = False, tenant: str = DEFAULT_TENANT) -> None:
        self.event = threading.Event()
        self.summary = summary
        self.error: Optional[BaseException] = None
        self.warm = warm
        self.tenant = tenant
        if summary is not None:
            self.event.set()


class _QueuedBuild:
    """One admitted cold build waiting for (or holding) a worker slot.

    ``submitted_at`` anchors the tenant's end-to-end latency histogram;
    ``parent_span`` is the submit-time trace context, captured explicitly
    because the build runs on a pool thread whose own context is empty.
    """

    __slots__ = ("fingerprint", "workload", "relations", "flight",
                 "submitted_at", "parent_span")

    def __init__(self, fingerprint: str, workload: ConstraintSet,
                 relations: Optional[Sequence[str]], flight: _Flight,
                 submitted_at: Optional[float] = None,
                 parent_span: object = None) -> None:
        self.fingerprint = fingerprint
        self.workload = workload
        self.relations = relations
        self.flight = flight
        self.submitted_at = time.perf_counter() if submitted_at is None \
            else submitted_at
        self.parent_span = parent_span


class _PinnedCursor:
    """A batch cursor holding a store pin for its whole lifetime.

    The pin is taken *eagerly* at construction — before the caller ever
    iterates — so there is no window in which GC could evict the entry
    backing a handed-out stream.  It is released exactly once: on
    exhaustion, on error, on :meth:`close`, when the service's idle-cursor
    reaper claims an abandoned cursor (:meth:`reap_if_idle`), or when the
    cursor is garbage collected (an abandoned, never-iterated cursor cannot
    leak its pin even with no reaper configured).  Release is thread-safe:
    the reaper runs on a background thread while a consumer may be
    mid-iteration.
    """

    def __init__(self, store: SummaryStore, fingerprint: str,
                 batches: Iterator[Table],
                 on_batch: Optional[callable] = None,
                 on_first_batch: Optional[callable] = None,
                 on_release: Optional[callable] = None) -> None:
        self._store = store
        self._fingerprint = fingerprint
        self._batches = batches
        self._on_batch = on_batch
        self._on_first_batch = on_first_batch
        self._on_release = on_release
        self._lock = threading.Lock()
        self._reaped = False
        self.last_used = time.monotonic()
        self._pinned = True
        store.pin(fingerprint)

    def _release(self) -> None:
        with self._lock:
            if not self._pinned:
                return
            self._pinned = False
        self._store.unpin(self._fingerprint)
        if self._on_release is not None:
            self._on_release()

    def reap_if_idle(self, now: float, idle_seconds: float) -> bool:
        """Release the pin if the cursor sat unused for ``idle_seconds``.

        Called by the service's background thread.  A reaped cursor keeps any
        batch the consumer already holds valid (batches are plain tables),
        but its next ``__next__`` raises :class:`ServiceError` — a consumer
        that merely stalled gets a clear error instead of streaming from an
        entry GC may since have evicted.
        """
        with self._lock:
            if not self._pinned or now - self.last_used < idle_seconds:
                return False
            self._reaped = True
            self._pinned = False
        self._store.unpin(self._fingerprint)
        if self._on_release is not None:
            self._on_release()
        return True

    def __iter__(self) -> "_PinnedCursor":
        return self

    def __next__(self) -> Table:
        if self._reaped:
            raise ServiceError(
                "stream cursor was reaped after sitting idle; re-open the"
                " stream"
            )
        self.last_used = time.monotonic()
        try:
            batch = next(self._batches)
        except BaseException:  # StopIteration included: cursor is done
            self._release()
            raise
        self.last_used = time.monotonic()
        if self._on_first_batch is not None:
            self._on_first_batch()
            self._on_first_batch = None
        if self._on_batch is not None:
            self._on_batch()
        return batch

    def close(self) -> None:
        self._release()

    def __del__(self) -> None:  # pragma: no cover - GC backstop
        self._release()


class Ticket:
    """Handle for a submitted regeneration request."""

    def __init__(self, fingerprint: str, flight: _Flight) -> None:
        self.fingerprint = fingerprint
        self._flight = flight

    @property
    def warm(self) -> bool:
        """``True`` when the request was served from the store."""
        return self._flight.warm

    @property
    def tenant(self) -> str:
        """The tenant tag the request was admitted under."""
        return self._flight.tenant

    def done(self) -> bool:
        """``True`` once the summary is available (or the build failed)."""
        return self._flight.event.is_set()

    def result(self, timeout: Optional[float] = None) -> DatabaseSummary:
        """Block until the summary is ready and return it."""
        if not self._flight.event.wait(timeout):
            raise ServiceError(
                f"request {self.fingerprint[:12]} did not finish within {timeout}s"
            )
        if self._flight.error is not None:
            raise self._flight.error
        assert self._flight.summary is not None
        return self._flight.summary


@dataclass(frozen=True)
class ResummarizeReport:
    """Outcome of one incremental re-summarization (a new workload epoch).

    The component lists come from diffing the drifted workload's manifest
    against the base epoch's provenance: ``reused`` components are served
    from the component-solution cache with zero solves, ``solved`` is the
    delta plan (components only the new epoch has — an upper bound on actual
    solves, since an "added" component may still hit a cache entry written
    by an unrelated build), ``retired`` existed only in the base.  A
    ``warm`` report ran nothing, so every new-epoch component is ``reused``
    and none is ``solved``.
    """

    fingerprint: str
    parent_fingerprint: str
    summary: DatabaseSummary
    #: ``True`` when the drifted epoch was already stored (nothing ran).
    warm: bool
    reused_components: Tuple[str, ...]
    solved_components: Tuple[str, ...]
    retired_components: Tuple[str, ...]

    @property
    def total_components(self) -> int:
        """Component count of the new epoch."""
        return len(self.reused_components) + len(self.solved_components)


@dataclass(frozen=True)
class TenantStats:
    """Per-tenant admission/progress counters (one row of the fair queue).

    Per-tenant latency lives in the tenant-labelled
    ``repro_service_request_seconds`` and ``repro_service_ttfb_seconds``
    histograms of the service's registry (and ``/metrics``).
    """

    tenant: str
    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    queued: int = 0
    running: int = 0


@dataclass(frozen=True)
class ServiceStats:
    """Structured serving telemetry: flat counters + per-tenant rows."""

    #: The flat counter dict (everything :meth:`RegenerationService.stats`
    #: returns, including the store's lifecycle counters).
    counters: Dict[str, int]
    #: One :class:`TenantStats` per tenant ever seen, sorted by name.
    tenants: Tuple[TenantStats, ...]

    def tenant(self, name: str) -> TenantStats:
        """The row for one tenant (zeros if it was never seen)."""
        for row in self.tenants:
            if row.tenant == name:
                return row
        return TenantStats(tenant=name)


class RegenerationService:
    """Concurrent serving front-end over a summary store.

    Parameters
    ----------
    schema:
        The (anonymised) client schema requests are validated against.
    store:
        A :class:`SummaryStore`, a directory path, or ``None`` (a private
        temporary store).  Paths and ``None`` go through
        :func:`~repro.service.store.open_store`, so a path-opened store
        inherits the config's lifecycle caps (``max_store_bytes`` /
        ``max_entries`` / ``ttl_seconds``).
    config:
        The :class:`~repro.api.RegenConfig` every pipeline and serving knob
        is read from: ``max_workers``
        (concurrent cold builds; warm requests and streams never occupy a
        worker), ``max_pending`` (global backpressure: further cold
        submissions raise :class:`~repro.errors.ServiceOverloadedError`),
        ``max_pending_per_tenant`` (the same cap per tenant, so one
        tenant's burst never starves the others), ``gc_interval`` (period
        of the background store-GC thread; :meth:`gc` always works on
        demand) and ``cursor_idle_timeout`` (idle bound after which a
        background reaper reclaims an abandoned stream cursor's store pin;
        :meth:`reap_idle_cursors` always works on demand).  Warm requests
        and in-flight dedup are always admitted.  ``executor_mode`` and
        ``batch_size`` are the defaults of the regenerate-and-verify reads.
        ``None`` means the defaults.  Cold builds dispatch FIFO within a
        tenant and round-robin across tenants.
    """

    def __init__(self, schema: Schema,
                 store: Union[SummaryStore, str, Path, None] = None,
                 config: Optional[RegenConfig] = None) -> None:
        self.schema = schema
        if config is not None and not isinstance(config, RegenConfig):
            raise ConfigError(
                f"config must be a RegenConfig, not {type(config).__name__};"
                " see the migration table in docs/API.md")
        self.config = config = config or RegenConfig()
        #: The service's metrics registry: every ``repro_service_*`` series,
        #: plus the store's and the LP solver's metrics when those components
        #: are owned by this service.  ``config.obs_enabled=False`` turns
        #: every update into a no-op (``stats()`` then reports zeros).
        self.registry = MetricsRegistry(enabled=config.obs_enabled)
        if config.trace_sample > 0.0:
            get_tracer().configure(sample=config.trace_sample)
        if config.log_format == "json":
            configure_logging(log_format="json")
        if isinstance(store, SummaryStore):
            self.store = store
        else:
            self.store = open_store(store, config=config,
                                    registry=self.registry)
        #: The one pipeline every cold build, fingerprint and manifest runs
        #: through.
        self.pipeline = Hydra(schema, config, store=self.store)
        # Re-home the solver's stats onto the service registry, so one
        # export (`stats --prometheus`) covers service, store and solver.
        self.pipeline.solver.stats = SolverStats(registry=self.registry)
        self._executor = ThreadPoolExecutor(
            max_workers=config.max_workers, thread_name_prefix="regen"
        )
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._closed = False
        self._flights: Dict[str, _Flight] = {}
        # Shared generators keyed by (fingerprint, relation, scale), and
        # the encoders built from them keyed by the same plus the template.
        self._generators: Dict[Tuple[str, str, float], TupleGenerator] = {}
        self._encoders: Dict[Tuple[str, str, float, object], BatchEncoder] = {}
        # Every handed-out stream cursor, weakly held: the reaper can reach
        # abandoned cursors without keeping them alive (a strong reference
        # would defeat the `__del__` GC backstop when no reaper runs).
        self._cursors: "weakref.WeakSet[_PinnedCursor]" = weakref.WeakSet()
        # Fair admission queue state: FIFO per tenant, dispatched
        # round-robin (in the dict's insertion order) whenever a worker slot
        # frees up.
        self._queues: Dict[str, Deque[_QueuedBuild]] = {}
        self._running_total = 0
        self._running_by_tenant: Dict[str, int] = {}
        self._pending_by_tenant: Dict[str, int] = {}
        # Every legacy ``stats()`` counter is a registry-backed series; the
        # dict maps the legacy flat key to its metric family, so the registry
        # is the single source of truth and the legacy dict shape is derived.
        self._counters = {
            "requests": self.registry.counter(
                "repro_service_requests_total", "Submissions received"),
            "hits": self.registry.counter(
                "repro_service_warm_hits_total",
                "Requests served warm from the store (no pipeline)"),
            "misses": self.registry.counter(
                "repro_service_cold_misses_total",
                "Cold requests admitted into the build queue"),
            "inflight_dedup": self.registry.counter(
                "repro_service_inflight_dedup_total",
                "Requests attached to an identical in-flight build"),
            "rejected_submissions": self.registry.counter(
                "repro_service_rejected_submissions_total",
                "Cold submissions refused by an admission cap"),
            "pipeline_runs": self.registry.counter(
                "repro_service_pipeline_runs_total",
                "Cold builds handed to the pipeline"),
            "pipeline_failures": self.registry.counter(
                "repro_service_pipeline_failures_total",
                "Builds that raised (including dispatch failures)"),
            "gc_runs": self.registry.counter(
                "repro_service_gc_runs_total", "Store GC passes"),
            "batches_streamed": self.registry.counter(
                "repro_service_batches_streamed_total",
                "Tuple batches handed to streaming consumers"),
            "cursors_reaped": self.registry.counter(
                "repro_service_cursors_reaped_total",
                "Idle stream cursors whose store pin the reaper reclaimed"),
            "components_reused": self.registry.counter(
                "repro_service_components_reused_total",
                "Cached component solutions resummarize reused verbatim"),
            "components_resolved": self.registry.counter(
                "repro_service_components_resolved_total",
                "Changed/new components resummarize had to solve"),
            # executor memory telemetry (regenerate-then-verify paths)
            "workloads_executed": self.registry.counter(
                "repro_service_workloads_executed_total",
                "AQP workloads replayed over regenerated databases"),
            "verifications": self.registry.counter(
                "repro_service_verifications_total",
                "Volumetric-similarity verification runs"),
            "executor_batches": self.registry.counter(
                "repro_service_executor_batches_total",
                "Batches pushed through executor pipelines"),
            "executor_peak_batch_rows": self.registry.gauge(
                "repro_service_executor_peak_batch_rows",
                "Largest batch any executor pushed through a plan"),
        }
        self._g_queue_depth = self.registry.gauge(
            "repro_service_queue_depth",
            "Cold builds admitted but not yet holding a worker slot")
        self._h_request = self.registry.histogram(
            "repro_service_request_seconds",
            "End-to-end submit-to-summary latency", labelnames=("tenant",))
        self._h_ttfb = self.registry.histogram(
            "repro_service_ttfb_seconds",
            "Stream handout to first batch latency", labelnames=("tenant",))
        self._tenant_builds = self.registry.counter(
            "repro_service_tenant_builds_total",
            "Per-tenant build outcomes of the fair-admission queue",
            labelnames=("tenant", "outcome"))
        # One background housekeeping thread runs store GC and cursor
        # reaping, each on its own period, when either knob is set.
        self._stopping = threading.Event()
        self._gc_thread: Optional[threading.Thread] = None
        if config.gc_interval is not None \
                or config.cursor_idle_timeout is not None:
            self._gc_thread = threading.Thread(
                target=self._housekeeping_loop, name="regen-housekeeping",
                daemon=True,
            )
            self._gc_thread.start()

    # ------------------------------------------------------------------ #
    # request front-end
    # ------------------------------------------------------------------ #
    def fingerprint(self, workload: ConstraintSet,
                    relations: Optional[Sequence[str]] = None) -> str:
        """The content fingerprint this service assigns to a request.

        Delegates to the pipeline so the service's dedup/warm detection and
        the store entries the pipeline writes always agree (the fingerprint
        covers the pipeline's result-affecting configuration, not just the
        workload).
        """
        return self.pipeline.request_fingerprint(workload, relations)

    def submit(self, workload: ConstraintSet,
               relations: Optional[Sequence[str]] = None,
               tenant: str = DEFAULT_TENANT) -> Ticket:
        """Submit a regeneration request; returns a ticket immediately.

        Warm requests resolve synchronously from the store.  Cold requests
        are admitted into the fair cold-build queue under ``tenant`` and run
        on the worker pool — FIFO within the tenant, round-robin across
        tenants; identical requests submitted while one is in flight
        share that single build (single-flight), whatever their tenant.
        Admission is refused with
        :class:`~repro.errors.ServiceOverloadedError` when the global
        ``max_pending`` cap or the tenant's ``max_pending_per_tenant`` cap
        is full; warm requests and in-flight dedup are always admitted.
        """
        started = time.perf_counter()
        with trace_span("service.submit", tenant=tenant) as span:
            ticket = self._submit(workload, relations, tenant, span, started)
            span.set_attribute("fingerprint", ticket.fingerprint[:12])
            span.set_attribute("warm", ticket.warm)
        return ticket

    def _submit(self, workload: ConstraintSet,
                relations: Optional[Sequence[str]], tenant: str,
                span: object, started: float) -> Ticket:
        fingerprint = self.fingerprint(workload, relations)
        with self._lock:
            self._counters["requests"].inc()
            flight = self._flights.get(fingerprint)
            if flight is not None:
                self._counters["inflight_dedup"].inc()
                logger.debug("request %s deduplicated onto in-flight build",
                             fingerprint[:12])
                return Ticket(fingerprint, flight)
        # The store lookup may hit disk (gzip + JSON decode); keep it outside
        # the lock so concurrent streamers are never stalled behind it, then
        # re-check for a flight that appeared meanwhile.
        summary = self.store.get_summary(fingerprint)
        with self._lock:
            flight = self._flights.get(fingerprint)
            if flight is not None:
                self._counters["inflight_dedup"].inc()
                logger.debug("request %s deduplicated onto in-flight build",
                             fingerprint[:12])
                return Ticket(fingerprint, flight)
            if summary is not None:
                self._counters["hits"].inc()
                self._h_request.labels(tenant=tenant).observe(
                    time.perf_counter() - started)
                return Ticket(fingerprint, _Flight(summary, warm=True,
                                                   tenant=tenant))
            if self._closed:
                raise ServiceClosedError(
                    "service is closed; no new cold builds are accepted"
                )
            max_pending = self.config.max_pending
            if max_pending is not None and len(self._flights) >= max_pending:
                self._counters["rejected_submissions"].inc()
                self._tenant_builds.labels(tenant=tenant,
                                           outcome="rejected").inc()
                logger.warning(
                    "rejected cold submission %s from tenant %s:"
                    " max_pending=%s reached",
                    fingerprint[:12], tenant, max_pending)
                raise ServiceOverloadedError(
                    f"{len(self._flights)} cold builds already pending"
                    f" (max_pending={max_pending}); retry later"
                )
            pending = self._pending_by_tenant.get(tenant, 0)
            per_tenant = self.config.max_pending_per_tenant
            if per_tenant is not None and pending >= per_tenant:
                self._counters["rejected_submissions"].inc()
                self._tenant_builds.labels(tenant=tenant,
                                           outcome="rejected").inc()
                logger.warning(
                    "rejected cold submission %s from tenant %s:"
                    " max_pending_per_tenant=%s reached",
                    fingerprint[:12], tenant, per_tenant)
                raise ServiceOverloadedError(
                    f"tenant {tenant!r} has {pending} cold builds pending"
                    f" (max_pending_per_tenant={per_tenant});"
                    " retry later"
                )
            self._counters["misses"].inc()
            self._tenant_builds.labels(tenant=tenant, outcome="admitted").inc()
            logger.debug("admitted cold build %s for tenant %s",
                         fingerprint[:12], tenant)
            flight = _Flight(tenant=tenant)
            self._flights[fingerprint] = flight
            self._pending_by_tenant[tenant] = pending + 1
            self._queues.setdefault(tenant, deque()).append(
                _QueuedBuild(fingerprint, workload, relations, flight,
                             submitted_at=started, parent_span=span)
            )
            self._dispatch_locked()
        return Ticket(fingerprint, flight)

    def summarize(self, workload: ConstraintSet,
                  relations: Optional[Sequence[str]] = None,
                  timeout: Optional[float] = None,
                  tenant: str = DEFAULT_TENANT) -> DatabaseSummary:
        """Blocking convenience wrapper: submit and wait for the summary."""
        return self.submit(workload, relations, tenant=tenant).result(timeout)

    # ------------------------------------------------------------------ #
    # incremental re-summarization (workload epochs)
    # ------------------------------------------------------------------ #
    def component_manifest(self, workload: ConstraintSet,
                           relations: Optional[Sequence[str]] = None,
                           ) -> List[str]:
        """The structural component manifest of a request, without solving."""
        per_relation = self.pipeline.component_manifest(workload, relations)
        return sorted({key for keys in per_relation.values() for key in keys})

    def resummarize(self, base_fingerprint: str, new_constraints: ConstraintSet,
                    relations: Optional[Sequence[str]] = None,
                    tenant: str = DEFAULT_TENANT,
                    timeout: Optional[float] = None) -> ResummarizeReport:
        """Incrementally re-summarize a drifted workload against a warm epoch.

        Builds the drifted workload once, then diffs the component keys its
        summary records (``DatabaseSummary.component_keys``) against the
        base epoch's: components present in both reused their cached
        solutions verbatim (zero solves — the store-backed component cache
        serves them), so the build only solved the changed/new
        constraint-graph components before stitching.  The new epoch is
        linked to its parent in the store (``parent_fingerprint`` metadata,
        walkable via :meth:`~repro.service.store.SummaryStore.list_lineage`).
        Because merging and stitching are deterministic given the component
        solutions, the produced summary is byte-identical to a cold
        ``summarize`` of the drifted workload.

        Raises :class:`~repro.errors.ServiceError` when ``base_fingerprint``
        is not in the store — resummarize never cold-builds the base.
        """
        with trace_span("service.resummarize", tenant=tenant) as span:
            span.set_attribute("base", base_fingerprint[:12])
            base_summary = self.store.get_summary(base_fingerprint)
            if base_summary is None:
                raise ServiceError(
                    f"no stored summary for base fingerprint"
                    f" {base_fingerprint[:12]}…; summarize the base workload"
                    " first"
                )
            ticket = self.submit(new_constraints, relations, tenant=tenant)
            summary = ticket.result(timeout)
            fingerprint = ticket.fingerprint
            manifest = summary.component_manifest()
            diff = manifest_diff(base_summary.component_manifest(), manifest)
            # A warm drifted epoch ran nothing: every one of its components
            # was reused; otherwise the intersection was served from cache
            # and the added components were (at most) solved.
            if ticket.warm:
                reused, solved = tuple(manifest), ()
            else:
                reused, solved = tuple(diff.reused), tuple(diff.added)
            self._counters["components_reused"].inc(len(reused))
            self._counters["components_resolved"].inc(len(solved))
            if fingerprint != base_fingerprint:
                self.store.link_parent(fingerprint, base_fingerprint)
            span.set_attribute("fingerprint", fingerprint[:12])
            span.set_attribute("warm", ticket.warm)
            span.set_attribute("components_reused", len(reused))
            span.set_attribute("components_resolved", len(solved))
            logger.info(
                "resummarized %s -> %s: reused=%d solved=%d retired=%d warm=%s",
                base_fingerprint[:12], fingerprint[:12], len(reused),
                len(solved), len(diff.retired), ticket.warm)
        return ResummarizeReport(
            fingerprint=fingerprint,
            parent_fingerprint=base_fingerprint,
            summary=summary,
            warm=ticket.warm,
            reused_components=reused,
            solved_components=solved,
            retired_components=tuple(diff.retired),
        )

    def diff(self, fingerprint_a: str, fingerprint_b: str) -> ManifestDiff:
        """Per-component reuse report between two stored workload epochs.

        ``reused`` components are shared by both epochs, ``added`` exist
        only in epoch ``b``, ``retired`` only in epoch ``a``.  Raises
        :class:`~repro.errors.ServiceError` when either epoch is missing
        from the store.
        """
        summaries = []
        for fingerprint in (fingerprint_a, fingerprint_b):
            summary = self.store.get_summary(fingerprint)
            if summary is None:
                raise ServiceError(
                    f"no stored summary for fingerprint {fingerprint[:12]}…;"
                    " cannot diff epochs"
                )
            summaries.append(summary)
        return manifest_diff(summaries[0].component_manifest(),
                             summaries[1].component_manifest())

    def lineage(self, fingerprint: str) -> List[Mapping[str, object]]:
        """The epoch chain ending at ``fingerprint`` (newest first)."""
        return self.store.list_lineage(fingerprint)

    # ------------------------------------------------------------------ #
    # fair dispatch
    # ------------------------------------------------------------------ #
    def _dispatch_locked(self) -> None:
        """Hand queued builds to free worker slots (caller holds the lock)."""
        while self._queues and self._running_total < self.config.max_workers:
            # Round-robin: the first tenant runs its queue head and, if it
            # has more queued, goes to the back of the line.
            tenant = next(iter(self._queues))
            queue = self._queues.pop(tenant)
            build = queue.popleft()
            if queue:
                self._queues[tenant] = queue
            self._running_total += 1
            self._running_by_tenant[tenant] = \
                self._running_by_tenant.get(tenant, 0) + 1
            try:
                self._executor.submit(self._run_build, build)
            except BaseException as error:
                # The pool refused the build (shut down racing this submit):
                # fail the flight and unregister it, so no waiter ever hangs
                # on an event that will never be set and no admission slot
                # leaks.  The while loop then drains any remaining queue the
                # same way.
                self._settle_build_locked(build, ServiceClosedError(
                    f"worker pool rejected build {build.fingerprint[:12]}:"
                    f" {error}"
                ))
        self._g_queue_depth.set(
            sum(len(queue) for queue in self._queues.values()))
        if self._running_total == 0 and not self._queues:
            self._idle.notify_all()

    def _run_build(self, build: _QueuedBuild) -> None:
        flight = build.flight
        error: Optional[BaseException] = None
        try:
            self._counters["pipeline_runs"].inc()
            with get_tracer().span("service.build", parent=build.parent_span,
                                   tenant=flight.tenant,
                                   fingerprint=build.fingerprint[:12]):
                flight.summary = self.pipeline.build_summary(
                    build.workload, build.relations).summary
        except BaseException as caught:  # surfaced to every waiter
            error = caught
        with self._lock:
            self._settle_build_locked(build, error)
            self._dispatch_locked()

    def _settle_build_locked(self, build: _QueuedBuild,
                             error: Optional[BaseException]) -> None:
        """Settle one dispatched build: wake waiters, release its slot and
        keep every counter exact (dispatching the next build is the
        caller's move)."""
        flight = build.flight
        tenant = flight.tenant
        if error is not None:
            flight.error = error
        flight.event.set()
        self._flights.pop(build.fingerprint, None)
        self._running_total -= 1
        running = self._running_by_tenant.get(tenant, 1) - 1
        if running > 0:
            self._running_by_tenant[tenant] = running
        else:
            self._running_by_tenant.pop(tenant, None)
        pending = self._pending_by_tenant.get(tenant, 1) - 1
        if pending > 0:
            self._pending_by_tenant[tenant] = pending
        else:
            self._pending_by_tenant.pop(tenant, None)
        self._h_request.labels(tenant=tenant).observe(
            time.perf_counter() - build.submitted_at)
        if error is None:
            self._tenant_builds.labels(tenant=tenant, outcome="completed").inc()
        else:
            self._tenant_builds.labels(tenant=tenant, outcome="failed").inc()
            self._counters["pipeline_failures"].inc()
            logger.error("pipeline build %s for tenant %s failed: %s",
                         build.fingerprint[:12], tenant, error)

    # ------------------------------------------------------------------ #
    # streaming
    # ------------------------------------------------------------------ #
    def stream(self, request: Union[ConstraintSet, str], relation: str,
               batch_size: Optional[int] = None,
               start_row: int = 1, stop_row: Optional[int] = None,
               timeout: Optional[float] = None,
               tenant: str = DEFAULT_TENANT,
               scale: float = 1.0) -> Iterator[Table]:
        """Stream a relation of a regenerated database in columnar batches.

        ``request`` is either a constraint set (resolved — warm or cold — via
        :meth:`submit`) or a fingerprint string of a previously-seen workload
        (store-only: raises :class:`ServiceError` when unknown, never runs
        the pipeline).  Resolution happens eagerly — an unknown fingerprint
        or a failed build raises at the call site, not at first iteration.
        Each call returns an independent cursor; concurrent consumers can
        shard a relation with ``start_row``/``stop_row``.  The cursor holds
        a store pin from the moment it is handed out until it is exhausted
        (or closed/collected): store GC never evicts an entry backing an
        in-flight stream.  ``scale`` multiplies the regenerated volume (see
        :meth:`database`); ``batch_size`` defaults to the config's.
        """
        return self._stream(request, relation, None, batch_size, start_row,
                            stop_row, timeout, tenant, scale)

    def stream_encoded(self, request: Union[ConstraintSet, str], relation: str,
                       template: Callable[[TupleGenerator], BatchEncoder],
                       batch_size: Optional[int] = None,
                       start_row: int = 1, stop_row: Optional[int] = None,
                       timeout: Optional[float] = None,
                       tenant: str = DEFAULT_TENANT,
                       scale: float = 1.0) -> Iterator[bytes]:
        """:meth:`stream`, with every batch encoded straight from the
        relation summary instead of built as a :class:`Table`.

        ``template(generator)`` is called once per ``(fingerprint,
        relation, scale)`` — its result is cached beside the shared
        generator — and returns the function encoding the tuples with
        primary keys ``start..stop`` (:func:`repro.server.wire.ndjson_encoder`
        is the one the HTTP front-end passes).  The cursor is the same
        pinned, reaped, counted and traced cursor :meth:`stream` hands out;
        only what a batch *is* differs.
        """
        return self._stream(request, relation, template, batch_size,
                            start_row, stop_row, timeout, tenant, scale)

    def _stream(self, request: Union[ConstraintSet, str], relation: str,
                template: Optional[Callable[[TupleGenerator], BatchEncoder]],
                batch_size: Optional[int], start_row: int,
                stop_row: Optional[int], timeout: Optional[float],
                tenant: str, scale: float) -> "_PinnedCursor":
        handed_out = time.perf_counter()
        fingerprint, generators = self._regenerate(request, scale, timeout,
                                                   (relation,))
        generator = generators[relation]
        batch_size = batch_size or self.config.batch_size
        if template is None:
            batches = generator.stream_range(start_row, stop_row,
                                             batch_size=batch_size)
        else:
            key = (fingerprint, relation, scale, template)
            with self._lock:
                encode = self._encoders.get(key)
                if encode is None:
                    encode = self._encoders[key] = template(generator)
            batches = generator.encode_range(encode, start_row, stop_row,
                                             batch_size=batch_size)
        # Non-current span covering the cursor's whole lifetime (handout to
        # release): generators cross yields, so it must never leak into the
        # consumer's contextvar.
        stream_span = get_tracer().start_span(
            "service.stream", relation=relation, tenant=tenant,
            fingerprint=fingerprint[:12])

        def count_batch() -> None:
            self._counters["batches_streamed"].inc()

        def first_batch() -> None:
            self._h_ttfb.labels(tenant=tenant).observe(
                time.perf_counter() - handed_out)

        cursor = _PinnedCursor(self.store, fingerprint, batches,
                               on_batch=count_batch,
                               on_first_batch=first_batch,
                               on_release=stream_span.finish)
        self._cursors.add(cursor)
        return cursor

    def total_rows(self, request: Union[ConstraintSet, str], relation: str,
                   scale: float = 1.0) -> int:
        """Rows the given relation regenerates to (without generating)."""
        return self._regenerate(request, scale, None,
                                (relation,))[1][relation].total_rows

    def _resolve_summary(self, request: Union[ConstraintSet, str],
                         timeout: Optional[float] = None,
                         ) -> Tuple[str, DatabaseSummary]:
        """Resolve a request to ``(fingerprint, summary)``.

        A constraint set resolves — warm or cold — via :meth:`submit`; a
        fingerprint string is store-only and raises :class:`ServiceError`
        when unknown, never running the pipeline.
        """
        if isinstance(request, str):
            summary = self.store.get_summary(request)
            if summary is None:
                raise ServiceError(
                    f"no stored summary for fingerprint {request[:12]}…;"
                    " submit the workload first"
                )
            return request, summary
        ticket = self.submit(request)
        return ticket.fingerprint, ticket.result(timeout)

    def _regenerate(self, request: Union[ConstraintSet, str], scale: float,
                    timeout: Optional[float],
                    relations: Optional[Sequence[str]] = None,
                    ) -> Tuple[str, Dict[str, TupleGenerator]]:
        """Resolve a request to its fingerprint and the shared generators of
        ``relations`` (every relation when ``None``) at ``scale``.

        Generators are keyed by ``(fingerprint, relation, scale)``, so
        repeated reads pay the summary setup once and :meth:`gc` drops them
        with their fingerprint.  A scaled regeneration is a view of the
        stored summary (:func:`~repro.codd.scaling.scale_summary`), built on
        a generator miss and never stored; at ``scale == 1.0`` the stored
        summary is used as is.
        """
        check_scale(scale)
        fingerprint, summary = self._resolve_summary(request, timeout)
        generators: Dict[str, TupleGenerator] = {}
        with self._lock:
            view = summary
            for relation in relations or summary.relations:
                key = (fingerprint, relation, scale)
                generator = self._generators.get(key)
                if generator is None:
                    if view is summary and scale != 1.0:
                        view = scale_summary(summary, self.schema, scale)
                    generator = self._generators[key] = \
                        TupleGenerator(view.relation(relation))
                generators[relation] = generator
        return fingerprint, generators

    # ------------------------------------------------------------------ #
    # regenerate-then-verify (pipelined execution over regenerated data)
    # ------------------------------------------------------------------ #
    def database(self, request: Union[ConstraintSet, str],
                 batch_size: Optional[int] = None,
                 timeout: Optional[float] = None,
                 scale: float = 1.0) -> Database:
        """A lazily regenerated :class:`Database` for the request's summary.

        Every relation is attached as a stream of run batches (at most
        ``batch_size`` summary rows each, the config's by default): nothing
        is generated until first scan, and pipelined consumers (the default
        :class:`~repro.engine.executor.Executor` mode) work per summary row,
        never expanding a relation into tuples however large the
        regenerated scale is.  ``scale`` multiplies the regenerated volume:
        summary-row counts are scaled and foreign keys remapped (see
        :func:`repro.codd.scaling.scale_summary`); the stored summary and
        its fingerprint do not change.  The streams are backed by the
        service's shared generators — the same ones :meth:`stream` serves
        shards from — so repeated regenerate-then-verify calls pay the
        summary setup once.  Scanning streams pin the store entry exactly
        like :meth:`stream` cursors do.
        """
        fingerprint, generators = self._regenerate(request, scale, timeout)
        batch_size = batch_size or self.config.batch_size
        database = Database(self.schema, name=f"regen-{fingerprint[:12]}")
        for relation, generator in generators.items():

            def stream_factory(generator: TupleGenerator = generator,
                               ) -> Iterator[RunBatch]:
                cursor = _PinnedCursor(
                    self.store, fingerprint,
                    generator.runs(batch_size=batch_size),
                )
                self._cursors.add(cursor)
                return cursor

            database.attach_stream(relation, stream_factory,
                                   row_count=generator.total_rows)
        return database

    def execute_workload(self, request: Union[ConstraintSet, str],
                         workload: Workload,
                         batch_size: Optional[int] = None,
                         mode: Optional[str] = None,
                         timeout: Optional[float] = None,
                         scale: float = 1.0,
                         ) -> List[AnnotatedQueryPlan]:
        """Execute an AQP workload over the request's regenerated database.

        This is the serving half of the paper's client/vendor loop: the
        vendor regenerates the database from the summary and replays the
        workload to produce AQPs, as run batches by default so no relation
        is ever materialised or expanded.  ``mode`` defaults to the
        config's ``executor_mode``.  Executor memory telemetry
        (``executor_peak_batch_rows`` and friends) lands in :meth:`stats`.
        """
        executor = Executor(self.database(request, batch_size, timeout, scale),
                            mode=mode or self.config.executor_mode)
        plans = executor.execute_workload(workload)
        self._observe_executor(executor, "workloads_executed")
        return plans

    def verify(self, request: Union[ConstraintSet, str],
               constraints: Optional[ConstraintSet] = None,
               batch_size: Optional[int] = None,
               mode: Optional[str] = None,
               timeout: Optional[float] = None,
               scale: float = 1.0) -> SimilarityReport:
        """Volumetric-similarity check of the regenerated database.

        Evaluates ``constraints`` against the regenerated data through the
        engine, streaming each denormalised view as run batches by default
        (``mode`` defaults to the config's ``executor_mode``).  Without
        ``constraints`` the request itself is evaluated when it is a
        constraint set, scaled by ``scale`` (the Section 7.4 arithmetic: a
        10x regeneration verifies against 10x the cardinalities); explicit
        ``constraints`` are evaluated as given.  The ``service.verify`` span
        records the ``relations`` whose views were counted, the ``runs``
        pushed through operators and the ``tuples`` those runs stood for.
        """
        if constraints is None and not isinstance(request, ConstraintSet):
            raise ServiceError(
                "verify needs an explicit constraint set when the request"
                " is a fingerprint"
            )
        with trace_span("service.verify") as span:
            database = self.database(request, batch_size, timeout, scale)
            if constraints is None:
                constraints = request if scale == 1.0 \
                    else request.scaled(scale)
            span.set_attribute("relations",
                               len({cc.relation for cc in constraints}))
            executor = Executor(database,
                                mode=mode or self.config.executor_mode)
            report = evaluate_with_executor(constraints, executor)
            span.set_attribute("runs", executor.stats.rows)
            span.set_attribute("tuples", executor.stats.tuples)
        self._observe_executor(executor, "verifications")
        return report

    def _observe_executor(self, executor: Executor, counter: str) -> None:
        stats = executor.stats
        self._counters[counter].inc()
        self._counters["executor_batches"].inc(stats.batches)
        self._counters["executor_peak_batch_rows"].set_max(stats.peak_batch_rows)

    # ------------------------------------------------------------------ #
    # store lifecycle
    # ------------------------------------------------------------------ #
    def gc(self) -> Dict[str, int]:
        """One store GC pass (TTL expiration + LRU eviction to caps).

        Safe to call any time: entries backing in-flight streams are pinned
        and survive.  The tuple generators and encoders of summaries that
        are no longer stored are dropped — at every scale — so an evicted
        summary is not kept alive in memory.  Returns the store's
        compaction report.
        """
        report = self.store.compact()
        with self._lock:
            held = {key[0] for key in (*self._generators, *self._encoders)}
        gone = {fp for fp in held if not self.store.has_summary(fp)}
        if gone:
            with self._lock:
                for cache in (self._generators, self._encoders):
                    for key in [key for key in cache if key[0] in gone]:
                        del cache[key]
        self._counters["gc_runs"].inc()
        if report["expired"] or report["evicted"]:
            logger.info("gc pass: expired=%d evicted=%d reclaimed=%dB",
                        report["expired"], report["evicted"],
                        report["reclaimed_bytes"])
        return report

    def _housekeeping_loop(self) -> None:
        """The one background thread: :meth:`gc` every ``gc_interval`` and
        :meth:`reap_idle_cursors` a few times per ``cursor_idle_timeout``
        (so reclamation lag stays a fraction of the knob), each on its own
        period."""
        config = self.config
        tasks = []
        if config.gc_interval is not None:
            tasks.append((self.gc, config.gc_interval))
        if config.cursor_idle_timeout is not None:
            reap_every = max(0.05, min(1.0, config.cursor_idle_timeout / 4.0))
            tasks.append((self.reap_idle_cursors, reap_every))
        due = [time.monotonic() + period for _, period in tasks]
        while not self._stopping.wait(max(0.0, min(due) - time.monotonic())):
            for index, (task, period) in enumerate(tasks):
                now = time.monotonic()
                if now >= due[index]:
                    due[index] = now + period
                    try:
                        task()
                    except Exception:  # pragma: no cover - keep serving
                        logger.exception("background %s pass failed",
                                         task.__name__)

    # ------------------------------------------------------------------ #
    # idle-cursor reaping
    # ------------------------------------------------------------------ #
    def reap_idle_cursors(self, idle_seconds: Optional[float] = None) -> int:
        """Release the store pins of stream cursors idle past the bound.

        ``idle_seconds`` defaults to the service's ``cursor_idle_timeout``
        (when that is ``None`` and no override is given, this is a no-op).
        Returns the number of cursors reaped.  Safe against concurrent
        consumers: a cursor that resumes iterating after being reaped gets
        a :class:`ServiceError`, never a stale pin.
        """
        limit = self.config.cursor_idle_timeout if idle_seconds is None \
            else idle_seconds
        if limit is None or limit <= 0:
            return 0
        now = time.monotonic()
        reaped = sum(1 for cursor in list(self._cursors)
                     if cursor.reap_if_idle(now, limit))
        if reaped:
            self._counters["cursors_reaped"].inc(reaped)
            logger.info("reaped %d stream cursor(s) idle > %.1fs",
                        reaped, limit)
        return reaped

    # ------------------------------------------------------------------ #
    # observability / lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        """The flat counters of :meth:`service_stats` (monitoring-friendly
        ints: serving, LP solver and store counters)."""
        return self.service_stats().counters

    def service_stats(self) -> ServiceStats:
        """Serving telemetry, built once: flat counters plus per-tenant
        admission rows.

        Every counter is read from the metrics registry; :attr:`registry`
        also carries the labelled series, per-tenant latency histograms
        included (Prometheus/JSON export).
        """
        counters = {key: int(family.value())
                    for key, family in self._counters.items()}
        outcomes: Dict[str, Dict[str, int]] = {}
        for child in self._tenant_builds.children():
            tenant, outcome = child.labelvalues
            outcomes.setdefault(tenant, {})[outcome] = int(child.value())
        with self._lock:
            counters["queue_depth"] = sum(
                len(queue) for queue in self._queues.values())
            names = set(outcomes) | set(self._queues) \
                | set(self._running_by_tenant)
            tenants = tuple(
                TenantStats(
                    tenant=name,
                    queued=len(self._queues.get(name, ())),
                    running=self._running_by_tenant.get(name, 0),
                    **{outcome: outcomes.get(name, {}).get(outcome, 0)
                       for outcome in _TENANT_OUTCOMES})
                for name in sorted(names))
        solver = self.pipeline.solver.stats
        counters.update({
            "solver_components_solved": solver.components_solved,
            "solver_cache_hits": solver.cache_hits,
            "solver_cache_misses": solver.cache_misses,
        })
        counters.update(self.store.counters())
        return ServiceStats(counters=counters, tenants=tenants)

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain the cold-build queue, finish in-flight builds and release
        the worker pool (new cold submissions now fail fast with
        :class:`~repro.errors.ServiceClosedError`; warm serving and
        streaming keep working)."""
        with self._idle:
            self._closed = True
            self._idle.wait_for(
                lambda: self._running_total == 0 and not self._queues,
                timeout,
            )
        self._stopping.set()
        if self._gc_thread is not None:
            self._gc_thread.join(timeout=5.0)
        self._executor.shutdown(wait=True)
        logger.info("service closed")

    def __enter__(self) -> "RegenerationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
