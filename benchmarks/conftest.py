"""Shared fixtures for the experiment benchmarks.

Every benchmark regenerates one table or figure of the paper's evaluation
(Section 7) at a reduced scale: the client database is a scaled-down
TPC-DS-like / JOB-like instance, and cardinalities are scaled up through the
CODD metadata path where the experiment calls for nominal 100 GB numbers.
The printed output of each benchmark is the reproduced table/series; its
assertions are the figure's shape claims.  Timing is measured by
``bench_e2e``, not here.
"""

from __future__ import annotations

import os

import pytest

from repro.benchdata.datagen import generate_database
from repro.benchdata.job import job_schema, job_workload
from repro.benchdata.tpcds import complex_workload, simple_workload, tpcds_schema
from repro.hydra.client import extract_constraints

#: ``BENCH_QUICK=1`` shrinks every experiment environment so the benchmarks
#: double as a fast CI smoke check (the reproduced numbers are then only
#: indicative, not the paper-scale figures).
QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

#: Scale used for the client instances backing the experiments: fact tables
#: at 1/1000 of the 100 GB configuration, dimensions at 1/50.
FACT_SCALE = 0.0005 if QUICK else 0.001
DIMENSION_SCALE = 0.01 if QUICK else 0.02
WLC_QUERIES = 40 if QUICK else 131
WLS_QUERIES = 30 if QUICK else 110
JOB_QUERIES = 60 if QUICK else 260

#: Region variables of the WLc formulation above: (total, widest relation).
#: Deterministic for the environment, so growth is a formulation change to
#: look at; per-relation counts at smoke scale are pinned by
#: ``tests/test_formulate.py``.
WLC_REGION_VARIABLES = (1_538, 426) if QUICK else (24_502, 6_732)


@pytest.fixture(scope="session")
def tpcds_env():
    """Schema, client database and both workloads' constraint sets."""
    schema = tpcds_schema(scale_factor=FACT_SCALE, dimension_scale=DIMENSION_SCALE)
    database = generate_database(schema, seed=1)
    wlc = complex_workload(schema, num_queries=WLC_QUERIES)
    wls = simple_workload(schema, num_queries=WLS_QUERIES)
    package_c = extract_constraints(database, wlc, name="WLc")
    package_s = extract_constraints(database, wls, name="WLs")
    return {
        "schema": schema,
        "database": database,
        "wlc": package_c.constraints,
        "wls": package_s.constraints,
    }


@pytest.fixture(scope="session")
def job_env():
    """Schema, client database and constraints for the JOB environment."""
    schema = job_schema(scale_factor=0.002)
    database = generate_database(schema, seed=11)
    workload = job_workload(schema, num_queries=JOB_QUERIES)
    package = extract_constraints(database, workload, name="JOB")
    return {"schema": schema, "database": database, "ccs": package.constraints}
