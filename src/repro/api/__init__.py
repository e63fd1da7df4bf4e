"""The unified public API: one config, one entry point, one pipeline.

``repro.api`` is the supported surface for driving the whole pipeline:

* :class:`RegenConfig` — every result-affecting and performance knob in one
  frozen dataclass; ``Hydra`` and the service read it as is, and it
  namespaces store fingerprints;
* :class:`Session` — the facade with the paper's four verbs
  (``extract`` → ``summarize`` → ``regenerate`` → ``verify``), a thin
  client of the one :class:`~repro.service.RegenerationService` it owns
  (``session.service``, also returned by ``serve()``);
* :class:`SummaryHandle` — the value flowing between the verbs (summary +
  fingerprint + provenance); ``regenerate`` returns the service's lazy
  engine :class:`~repro.engine.Database`.

Older entry points (``Hydra(schema).build_summary``, ``DataSynth.generate``)
keep working; see ``docs/API.md`` for the migration mapping.
"""

from repro.api.config import RegenConfig
from repro.api.session import Session, SummaryHandle

__all__ = [
    "Session",
    "RegenConfig",
    "SummaryHandle",
]
