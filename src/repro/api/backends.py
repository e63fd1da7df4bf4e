"""The pluggable pipeline-backend registry.

A *backend* adapts one regeneration engine (Hydra, DataSynth, or anything a
user registers) to the uniform contract the :class:`~repro.api.Session`
facade and the :class:`~repro.service.RegenerationService` route requests
through:

* ``fingerprint(constraints, relations)`` — the canonical store/dedup key,
  namespaced by the backend's result-affecting configuration;
* ``build(constraints, relations)`` — run the engine and return a
  :class:`BackendBuild` whose :class:`~repro.summary.DatabaseSummary` fully
  describes the regenerated database (instance-producing engines are
  run-length encoded via :func:`repro.summary.summary_from_database`, so the
  summary regenerates their output byte-identically).

Backends are selected by name — ``register_backend("myengine", factory)``
makes ``Session(schema).summarize(ccs, engine="myengine")`` and
``RegenerationService(schema, config=RegenConfig(engine="myengine"))`` work
without either layer knowing the engine exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

from repro.api.config import RegenConfig
from repro.constraints.workload import ConstraintSet
from repro.errors import UnknownBackendError
from repro.obs.trace import span as trace_span
from repro.schema.schema import Schema
from repro.summary.relation_summary import DatabaseSummary

if TYPE_CHECKING:
    from repro.service.store import SummaryStore


@dataclass
class BackendBuild:
    """What one backend build hands back to the session/service layer."""

    #: The (scale-free) summary the request regenerates from.
    summary: DatabaseSummary
    #: Engine-specific diagnostics (solver stats, timings, extra tuples...).
    diagnostics: Dict[str, object] = field(default_factory=dict)
    #: ``True`` when the whole result came from the store, skipping the
    #: pipeline.
    from_store: bool = False


class PipelineBackend:
    """Base class (and documentation of the contract) for pipeline backends.

    Subclasses must set :attr:`name`, expose the underlying engine object as
    :attr:`pipeline` (whose ``solver.stats`` feeds serving telemetry) and
    implement :meth:`fingerprint` and :meth:`build`.
    """

    #: Registry name of the engine.
    name: str = ""
    #: The wrapped engine object (must expose ``solver.stats``).
    pipeline: object = None

    def fingerprint(self, constraints: ConstraintSet,
                    relations: Optional[Sequence[str]] = None) -> str:
        raise NotImplementedError

    def build(self, constraints: ConstraintSet,
              relations: Optional[Sequence[str]] = None) -> BackendBuild:
        raise NotImplementedError


#: A backend factory: ``factory(schema, config, store) -> PipelineBackend``.
BackendFactory = Callable[[Schema, RegenConfig, Optional["SummaryStore"]],
                          PipelineBackend]

_REGISTRY: Dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register (or replace) a pipeline backend under ``name``."""
    if not name:
        raise UnknownBackendError("backend name must be non-empty")
    _REGISTRY[name] = factory


def available_backends() -> Tuple[str, ...]:
    """Names of every registered backend, sorted."""
    return tuple(sorted(_REGISTRY))


def create_backend(name: str, schema: Schema, config: RegenConfig,
                   store: Optional["SummaryStore"] = None) -> PipelineBackend:
    """Instantiate the backend registered under ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(
            f"no pipeline backend registered under {name!r};"
            f" available: {', '.join(available_backends())}"
        ) from None
    return factory(schema, config, store)


# ---------------------------------------------------------------------- #
# built-in backends
# ---------------------------------------------------------------------- #
class HydraBackend(PipelineBackend):
    """Hydra: summary-producing, store-aware (warm builds skip the LP)."""

    name = "hydra"

    def __init__(self, schema: Schema, config: RegenConfig,
                 store: Optional["SummaryStore"] = None) -> None:
        from repro.hydra.pipeline import Hydra

        self.config = config
        self.pipeline = Hydra(schema, config.hydra_config(), store=store)

    def fingerprint(self, constraints: ConstraintSet,
                    relations: Optional[Sequence[str]] = None) -> str:
        return self.pipeline.request_fingerprint(constraints, relations)

    def build(self, constraints: ConstraintSet,
              relations: Optional[Sequence[str]] = None) -> BackendBuild:
        with trace_span("backend.build", engine=self.name,
                        constraints=len(constraints)) as span:
            result = self.pipeline.build_summary(constraints, relations)
            build = BackendBuild(
                summary=result.summary,
                diagnostics={
                    "total_seconds": result.total_seconds,
                    "lp_wall_seconds": result.lp_wall_seconds,
                    "solver_stats": dict(result.solver_stats),
                    "view_reports": result.view_reports,
                },
                from_store=bool(result.solver_stats.get("summary_store_hits", 0)),
            )
            span.set_attribute("from_store", build.from_store)
        return build


class DataSynthBackend(PipelineBackend):
    """DataSynth: instance-producing; the materialised database is run-length
    encoded into an exact summary so the serving layer (store, streaming,
    scaling) works identically for both engines.  With a store attached, the
    baseline gains a whole-result warm path it never had."""

    name = "datasynth"

    def __init__(self, schema: Schema, config: RegenConfig,
                 store: Optional["SummaryStore"] = None) -> None:
        from repro.datasynth.pipeline import DataSynth

        self.config = config
        self.schema = schema
        self.store = store
        self.pipeline = DataSynth(schema, config.datasynth_config(), store=store)

    def fingerprint(self, constraints: ConstraintSet,
                    relations: Optional[Sequence[str]] = None) -> str:
        from repro.service.fingerprint import workload_fingerprint

        config = self.config
        # Only result-affecting knobs namespace the fingerprint: the sampling
        # seed and the grid budget change the instance; time_limit does not
        # (DataSynth's continuous formulation never takes the MILP pass).
        return workload_fingerprint(
            self.schema, constraints, relations=relations,
            profile=["datasynth", config.seed, config.max_grid_variables],
        )

    def build(self, constraints: ConstraintSet,
              relations: Optional[Sequence[str]] = None) -> BackendBuild:
        with trace_span("backend.build", engine=self.name,
                        constraints=len(constraints)) as span:
            build = self._build(constraints, relations)
            span.set_attribute("from_store", build.from_store)
        return build

    def _build(self, constraints: ConstraintSet,
               relations: Optional[Sequence[str]] = None) -> BackendBuild:
        from repro.summary.relation_summary import summary_from_database

        if self.store is not None:
            fingerprint = self.fingerprint(constraints, relations)
            cached = self.store.get_summary(fingerprint)
            if cached is not None:
                return BackendBuild(summary=cached, from_store=True,
                                    diagnostics={"summary_store_hits": 1})
        result = self.pipeline.generate(constraints, relations)
        summary = summary_from_database(result.database)
        summary.extra_tuples = dict(result.extra_tuples)
        summary.lp_variable_counts = dict(result.lp_variable_counts)
        summary.timings = {
            "total_seconds": result.total_seconds,
            "lp_seconds": result.lp_seconds,
            "instantiation_seconds": result.instantiation_seconds,
        }
        if self.store is not None:
            self.store.put_summary(fingerprint, summary, meta={
                "schema": self.schema.name,
                "constraints": len(constraints),
                "engine": self.name,
            })
        return BackendBuild(
            summary=summary,
            diagnostics={
                "total_seconds": result.total_seconds,
                "lp_seconds": result.lp_seconds,
                "instantiation_seconds": result.instantiation_seconds,
                "extra_tuples": dict(result.extra_tuples),
            },
        )


register_backend("hydra", HydraBackend)
register_backend("datasynth", DataSynthBackend)
