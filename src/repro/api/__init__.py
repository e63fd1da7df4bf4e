"""The unified public API: one config, one entry point, pluggable backends.

``repro.api`` is the supported surface for driving the whole pipeline:

* :class:`RegenConfig` — every result-affecting and performance knob in one
  frozen dataclass, from which the per-engine configs are derived and which
  namespaces store fingerprints;
* :class:`Session` — the facade with the paper's four verbs
  (``extract`` → ``summarize`` → ``regenerate`` → ``verify``) plus
  ``serve()`` to lift the same configuration into a concurrent
  :class:`~repro.service.RegenerationService`;
* :class:`SummaryHandle` / :class:`DatabaseHandle` — the values flowing
  between the verbs (summary + fingerprint + diagnostics; lazy database +
  execute/stream/row_counts);
* :func:`register_backend` — plug in new engines by name; Hydra and
  DataSynth are pre-registered, and the serving layer routes through the
  same registry.

Older entry points (``Hydra(schema).build_summary``, ``DataSynth.generate``)
keep working; see ``docs/API.md`` for the migration mapping.
"""

from repro.api.backends import (
    BackendBuild,
    PipelineBackend,
    available_backends,
    create_backend,
    register_backend,
)
from repro.api.config import BUILTIN_ENGINES, RegenConfig
from repro.api.session import DatabaseHandle, EpochDiff, Session, SummaryHandle

__all__ = [
    "Session",
    "RegenConfig",
    "SummaryHandle",
    "DatabaseHandle",
    "EpochDiff",
    "PipelineBackend",
    "BackendBuild",
    "register_backend",
    "available_backends",
    "create_backend",
    "BUILTIN_ENGINES",
]
