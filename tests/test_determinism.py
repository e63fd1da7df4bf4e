"""One summary per request, whatever the solver's parallelism.

The build submits view LPs to the solver as they are formulated, and the
worker pool finishes components in any order; the summary must not depend
on it.  The bench-scale pins are the end-to-end benchmark's inputs (data
seed 1): a change that alters summary content, or the store fingerprint that
names it, must refresh them on purpose.
"""

from __future__ import annotations

import pytest

from repro import (
    Hydra,
    RegenConfig,
    Session,
    complex_workload,
    extract_constraints,
    generate_database,
    simple_workload,
    tpcds_schema,
)

#: ``content_digest()`` of the bench-scale builds, data seed 1.
BENCH_DIGESTS = {
    "wlc": "d4bb67ee419d239dc8b622cd4eee566b6268f326a514b073f3c20ff84c6df95a",
    "wls": "1cf48a6607e990c607c7a7be78510c03242e238c3965a84b220a033f4f8598e2",
}

#: Store fingerprints of the same requests under the default config: the
#: names their summaries are stored under.
BENCH_FINGERPRINTS = {
    "wlc": "13e7e2f46dc1b36cc13445600db41eff2f79df378075ce12c5d61be4136d0071",
    "wls": "ef34df0ae7a6b7334d871801b0fbb737c81b93e1533d7ca9dc95750022de9908",
}


def workloads(schema, wlc_queries: int, wls_queries: int):
    database = generate_database(schema, seed=1)
    return {
        "wlc": extract_constraints(database, complex_workload(schema, wlc_queries)).constraints,
        "wls": extract_constraints(database, simple_workload(schema, wls_queries)).constraints,
    }


@pytest.fixture(scope="module")
def smoke():
    schema = tpcds_schema(scale_factor=0.00002, dimension_scale=0.002)
    return schema, workloads(schema, wlc_queries=30, wls_queries=20)


@pytest.mark.parametrize("which", ["wlc", "wls"])
def test_digest_is_independent_of_workers_and_pool_kind(smoke, which):
    schema, constraints = smoke
    digests = {
        workers: Hydra(schema, RegenConfig(workers=workers))
        .build_summary(constraints[which]).summary.content_digest()
        for workers in (1, 2)
    }
    assert len(set(digests.values())) == 1, digests


@pytest.fixture(scope="module")
def bench():
    schema = tpcds_schema(scale_factor=0.0002, dimension_scale=0.01)
    return schema, workloads(schema, wlc_queries=131, wls_queries=110)


def test_bench_scale_fingerprints_are_pinned(bench):
    schema, constraints = bench
    hydra, session = Hydra(schema), Session(schema)
    for fingerprint in (hydra.request_fingerprint, session.service.fingerprint):
        assert {which: fingerprint(ccs) for which, ccs in constraints.items()} \
            == BENCH_FINGERPRINTS
    session.service.close()


def test_bench_scale_digests_are_pinned(bench):
    schema, constraints = bench
    digests = {which: Hydra(schema).build_summary(ccs).summary.content_digest()
               for which, ccs in constraints.items()}
    assert digests == BENCH_DIGESTS
