"""The regeneration service layer (serving-fleet scenario).

Hydra's database summaries are kilobyte-scale and *scale-free*: once built,
they can regenerate arbitrary data volumes on demand.  This package turns the
one-shot pipeline into a reusable serving system:

* :mod:`repro.service.fingerprint` — canonical content fingerprints of
  ``(schema, constraint set)`` pairs, stable under column / constraint
  reordering, used as the identity of a regeneration request;
* :mod:`repro.service.store` — :class:`SummaryStore`, content-addressed
  on-disk persistence for database summaries and LP component solutions with
  atomic writes and an LRU-bounded in-memory layer, shareable across worker
  processes;
* :mod:`repro.service.service` — :class:`RegenerationService`, a concurrent
  front-end (``submit``/``summarize``/``stream``/``stats``) that deduplicates
  identical in-flight requests, serves warm requests straight from the store
  without touching the LP solver, admits cold builds through a weighted-fair
  per-tenant queue (global ``max_pending`` plus ``max_pending_per_tenant``
  caps), optionally GCs the store from a background thread and runs cold
  builds through the one :class:`~repro.hydra.pipeline.Hydra` pipeline it
  owns.

The CLI door is the unified ``python -m repro`` (see :mod:`repro.cli`).
"""

from repro.service.fingerprint import (
    ManifestDiff,
    constraint_set_fingerprint,
    manifest_diff,
    schema_fingerprint,
    workload_fingerprint,
)
from repro.service.service import (
    RegenerationService,
    ResummarizeReport,
    ServiceStats,
    TenantStats,
    Ticket,
)
from repro.service.store import StoreSolutionCache, SummaryStore, open_store

__all__ = [
    "RegenerationService",
    "ResummarizeReport",
    "ServiceStats",
    "TenantStats",
    "Ticket",
    "SummaryStore",
    "StoreSolutionCache",
    "open_store",
    "workload_fingerprint",
    "schema_fingerprint",
    "constraint_set_fingerprint",
    "manifest_diff",
    "ManifestDiff",
]
