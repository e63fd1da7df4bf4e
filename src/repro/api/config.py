"""The one canonical configuration of the regeneration pipeline.

:class:`RegenConfig` holds every knob in one frozen (hashable, immutable)
dataclass.  :class:`~repro.hydra.pipeline.Hydra` reads its pipeline knobs
from it directly, and its result-affecting knobs namespace store
fingerprints: two sessions whose configs differ in a result-affecting knob
can never share a store entry, while performance-only knobs (workers, cache
sizes, batch size) never split the store.

It is also the only place a serving knob is set: ``RegenerationService``,
``Session.serve()`` and ``RegenerationServer`` read their worker pool,
admission caps, GC/reaper periods and HTTP limits from the config they are
handed, and take no keyword spelling of their own.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.engine.executor import EXECUTOR_MODES
from repro.errors import ConfigError
from repro.lp.formulate import STRATEGY_GRID, STRATEGY_REGION
from repro.lp.solver import DEFAULT_WORKERS

#: Default number of tuples per streamed batch (mirrors
#: :data:`repro.tuplegen.generator.DEFAULT_BATCH_SIZE` without importing the
#: generator — config must stay import-light).
DEFAULT_BATCH_SIZE = 65_536


@dataclass(frozen=True)
class RegenConfig:
    """Every knob of the regeneration pipeline, in one frozen object.

    Result-affecting knobs (they change the produced summary/database and
    therefore namespace store fingerprints):

    * ``strategy`` — ``"region"`` (Hydra proper) or ``"grid"`` (the
      DataSynth-style formulation);
    * ``max_grid_variables`` / ``max_region_variables`` — partitioning
      budgets.

    Error-mode knob: ``strict`` raises
    :class:`~repro.errors.InfeasibleLPError` on residual constraint
    violation instead of reporting it in the diagnostics (same values on
    success, so it does not namespace fingerprints).

    Performance-only knobs (never fingerprinted): ``workers``,
    ``batch_size``, ``executor_mode``, ``max_workers``, ``max_pending``,
    ``max_pending_per_tenant``.

    The LP solver itself has one configuration (exact MILP first, within
    :data:`~repro.lp.solver.MILP_VARIABLE_LIMIT` variables per component and
    :data:`~repro.lp.solver.MILP_TIME_LIMIT` seconds; a component-solution
    cache of :data:`~repro.lp.solver.DEFAULT_CACHE_SIZE` entries), so no
    field sets it.

    Store lifecycle knobs (also never fingerprinted — they bound the store,
    not the artefacts): ``max_store_bytes``, ``max_entries``,
    ``ttl_seconds``, ``gc_interval``, ``cursor_idle_timeout``.

    HTTP serving knobs (never fingerprinted — they shape the network
    front-end, not the artefacts): ``max_connections`` caps concurrently
    in-flight HTTP requests (excess answered 503); ``request_timeout`` is
    the per-request socket/wait bound of the server; ``max_request_bytes``
    caps the request body it accepts (oversized POSTs answered 413);
    ``batch_size`` is also its NDJSON chunk size when a stream names none.

    Observability knobs (never fingerprinted — they change what is
    *recorded*, not what is produced): ``obs_enabled`` switches the
    :mod:`repro.obs` metrics registry the service/store instrument through
    (``False`` turns every update into a no-op and ``stats()`` reports
    zeros); ``trace_sample`` is the root-sampling rate of request tracing
    (``0.0`` disables it); ``log_format`` picks the ``"text"`` or ``"json"``
    handler the service attaches to the ``repro.*`` loggers (``json`` only —
    plain text stays opt-in via
    :func:`repro.obs.configure_logging`).
    """

    # -- result-affecting pipeline knobs ------------------------------- #
    strategy: str = STRATEGY_REGION
    max_grid_variables: int = 200_000
    max_region_variables: int = 8_000
    # -- error mode ---------------------------------------------------- #
    strict: bool = False
    # -- performance knobs --------------------------------------------- #
    workers: int = DEFAULT_WORKERS
    batch_size: int = DEFAULT_BATCH_SIZE
    executor_mode: str = "pipelined"
    # -- serving knobs ------------------------------------------------- #
    max_workers: int = 2
    max_pending: Optional[int] = None
    max_pending_per_tenant: Optional[int] = None
    # -- HTTP front-end knobs ------------------------------------------ #
    max_connections: int = 64
    request_timeout: float = 30.0
    max_request_bytes: int = 64 * 1024 * 1024
    # -- store lifecycle knobs ----------------------------------------- #
    max_store_bytes: Optional[int] = None
    max_entries: Optional[int] = None
    ttl_seconds: Optional[float] = None
    gc_interval: Optional[float] = None
    cursor_idle_timeout: Optional[float] = None
    # -- observability knobs ------------------------------------------- #
    obs_enabled: bool = True
    trace_sample: float = 0.0
    log_format: str = "text"

    def __post_init__(self) -> None:
        if self.strategy not in (STRATEGY_REGION, STRATEGY_GRID):
            raise ConfigError(
                f"unknown strategy {self.strategy!r}; expected"
                f" {STRATEGY_REGION!r} or {STRATEGY_GRID!r}"
            )
        if self.executor_mode not in EXECUTOR_MODES:
            raise ConfigError(
                f"unknown executor mode {self.executor_mode!r};"
                f" expected one of {EXECUTOR_MODES}"
            )
        for knob in ("workers", "max_workers", "batch_size"):
            if getattr(self, knob) < 1:
                raise ConfigError(f"{knob} must be at least 1")
        for knob in ("max_grid_variables", "max_region_variables"):
            if getattr(self, knob) < 0:
                raise ConfigError(f"{knob} must be non-negative")
        for knob in ("max_pending", "max_pending_per_tenant",
                     "max_store_bytes", "max_entries", "ttl_seconds"):
            value = getattr(self, knob)
            if value is not None and value < 0:
                raise ConfigError(f"{knob} must be non-negative (or None)")
        if self.gc_interval is not None and self.gc_interval <= 0:
            raise ConfigError("gc_interval must be positive (or None)")
        if self.cursor_idle_timeout is not None and self.cursor_idle_timeout <= 0:
            raise ConfigError("cursor_idle_timeout must be positive (or None)")
        if self.max_connections < 1:
            raise ConfigError("max_connections must be at least 1")
        if self.request_timeout <= 0:
            raise ConfigError("request_timeout must be positive")
        if self.max_request_bytes < 1:
            raise ConfigError("max_request_bytes must be at least 1")
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ConfigError("trace_sample must be within [0, 1]")
        from repro.obs.logging import LOG_FORMATS

        if self.log_format not in LOG_FORMATS:
            raise ConfigError(
                f"unknown log_format {self.log_format!r};"
                f" expected one of {LOG_FORMATS}"
            )

    def replace(self, **changes: object) -> "RegenConfig":
        """A copy with the given knobs changed (the config is frozen)."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    def hydra_config(self) -> "RegenConfig":
        """This config: :class:`~repro.hydra.pipeline.Hydra` takes it as is.

        Kept for ``bench_e2e/layers.py``, which still passes
        ``config.hydra_config()`` to ``Hydra``.
        """
        return self
