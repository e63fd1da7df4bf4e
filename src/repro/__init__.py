"""Hydra — scalable and dynamic regeneration of big data volumes.

A from-scratch Python reproduction of *Sanghi, Sood, Haritsa, Tirthapura:
"Scalable and Dynamic Regeneration of Big Data Volumes", EDBT 2018*, including
the DataSynth baseline, an in-memory relational engine producing annotated
query plans, TPC-DS-like / JOB-like benchmark environments, and the full
experiment harness.

Typical use (the :mod:`repro.api` session facade)::

    from repro import Session, RegenConfig, tpcds_schema, complex_workload, generate_database

    schema = tpcds_schema(scale_factor=0.0005)
    client_db = generate_database(schema, seed=1)
    workload = complex_workload(schema)

    session = Session(schema, config=RegenConfig(workers=4))
    constraints = session.extract(client_db, workload)
    handle = session.summarize(constraints)
    database = session.regenerate(handle)          # lazy engine Database
    report = session.verify(handle)

The per-layer symbols (``Hydra``, ``DataSynth``, ``RegenerationService``,
solvers, partitioners...) remain importable for experiments and extensions;
``docs/API.md`` maps the old entry points onto the session facade.
"""

from repro.api import RegenConfig, Session, SummaryHandle
from repro.benchdata import (
    complex_workload,
    generate_database,
    job_schema,
    job_workload,
    simple_workload,
    tpcds_schema,
)
from repro.constraints import CardinalityConstraint, ConstraintSet
from repro.datasynth import DataSynth, DataSynthConfig, DataSynthResult
from repro.engine import EXECUTOR_MODES, Database, Executor, PipelineStats, Table
from repro.errors import ReproError
from repro.hydra import Hydra, HydraResult, extract_constraints
from repro.metrics import (
    SimilarityReport,
    compare_extra_tuples,
    compare_lp_sizes,
    evaluate_on_database,
    evaluate_on_summary,
    evaluate_with_executor,
)
from repro.predicates import Conjunct, DNFPredicate, Interval, IntervalSet, col
from repro.schema import Attribute, ForeignKey, Relation, Schema
from repro.server import RegenerationServer
from repro.service import (
    ManifestDiff,
    RegenerationService,
    ResummarizeReport,
    ServiceStats,
    SummaryStore,
    TenantStats,
    Ticket,
    open_store,
    workload_fingerprint,
)
from repro.summary import DatabaseSummary, RelationSummary
from repro.tuplegen import TupleGenerator, dynamic_database, materialize_database
from repro.workload import Query, Workload, WorkloadGenerator, WorkloadProfile

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # unified api facade
    "Session",
    "RegenConfig",
    "SummaryHandle",
    # schema
    "Schema",
    "Relation",
    "Attribute",
    "ForeignKey",
    # predicates
    "Interval",
    "IntervalSet",
    "Conjunct",
    "DNFPredicate",
    "col",
    # constraints
    "CardinalityConstraint",
    "ConstraintSet",
    # engine
    "Table",
    "Database",
    "Executor",
    "EXECUTOR_MODES",
    "PipelineStats",
    # workload
    "Query",
    "Workload",
    "WorkloadGenerator",
    "WorkloadProfile",
    # benchmark environments
    "tpcds_schema",
    "complex_workload",
    "simple_workload",
    "job_schema",
    "job_workload",
    "generate_database",
    # pipelines
    "Hydra",
    "HydraResult",
    "extract_constraints",
    "DataSynth",
    "DataSynthConfig",
    "DataSynthResult",
    # summaries and generation
    "DatabaseSummary",
    "RelationSummary",
    "TupleGenerator",
    "materialize_database",
    "dynamic_database",
    # serving
    "RegenerationServer",
    "RegenerationService",
    "ServiceStats",
    "TenantStats",
    "Ticket",
    "SummaryStore",
    "open_store",
    "workload_fingerprint",
    "ManifestDiff",
    "ResummarizeReport",
    # metrics
    "SimilarityReport",
    "evaluate_on_database",
    "evaluate_on_summary",
    "evaluate_with_executor",
    "compare_lp_sizes",
    "compare_extra_tuples",
]
