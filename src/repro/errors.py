"""Exception hierarchy for the Hydra reproduction library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """The relational schema is malformed (missing keys, dangling FKs, ...)."""


class PredicateError(ReproError):
    """A predicate or interval is malformed (empty domain, bad bounds, ...)."""


class ConstraintError(ReproError):
    """A cardinality constraint is inconsistent with the schema or views."""


class ViewError(ReproError):
    """View construction or CC-to-view rewriting failed."""


class PartitionError(ReproError):
    """Domain partitioning failed or produced an invalid partition."""


class PartitionBudgetError(PartitionError):
    """A partitioning pass exceeded its configured size budget and was
    aborted early so the caller can retry with a coarser configuration."""


class LPError(ReproError):
    """LP formulation or solving failed."""


class InfeasibleLPError(LPError):
    """The LP has no feasible solution (mutually inconsistent constraints)."""


class LPTooLargeError(LPError):
    """The LP formulation is too large to materialise.

    This models the behaviour reported in the paper where the LP solver
    crashes on the grid-partitioning formulation of DataSynth for the complex
    workload (Section 7.2).
    """


class SummaryError(ReproError):
    """Summary construction (align/merge/consistency) failed."""


class GenerationError(ReproError):
    """Tuple generation or materialisation failed."""


class EngineError(ReproError):
    """The in-memory relational engine hit an unexpected state."""


class WorkloadError(ReproError):
    """A query or workload is malformed with respect to the schema."""


class ServiceError(ReproError):
    """The regeneration service hit an unexpected state (unknown
    fingerprint, submission after shutdown, ...)."""


class ServiceOverloadedError(ServiceError):
    """The service rejected a cold submission because an admission limit was
    reached — the global ``max_pending`` backpressure cap or the submitting
    tenant's ``max_pending_per_tenant`` fair-admission cap; retry later or
    raise the limit."""


class ServiceClosedError(ServiceError):
    """A cold submission arrived after the service's worker pool was shut
    down (``close()``), or the pool went away while the build was queued.
    The flight is failed and unregistered — waiters never hang on it."""


class ConfigError(ReproError):
    """A :class:`~repro.api.RegenConfig` knob is out of its valid range."""


class SummaryStoreError(ServiceError):
    """A summary store is unreadable: unknown format version, corrupted or
    partially written entry files, or a missing store directory."""


class ObservabilityError(ReproError):
    """Misuse of the :mod:`repro.obs` layer: invalid metric names, label
    sets, bucket layouts or quantile arguments."""
