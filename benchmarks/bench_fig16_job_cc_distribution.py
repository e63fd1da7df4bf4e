"""Figure 16: cardinality distribution of the CCs in the JOB workload.

Like Figure 9 but for the JOB (IMDB) environment: 260 queries yielding ~523
cardinality constraints with a highly varied cardinality distribution.
"""

from __future__ import annotations

from conftest import QUICK

from repro.codd.scaling import scale_constraints


def test_fig16_job_cc_distribution(job_env):
    ccs = job_env["ccs"]
    nominal = scale_constraints(ccs, 1.0 / 0.002, name="JOB@full")

    histogram = nominal.cardinality_histogram()
    summary = nominal.summary()
    print("\n[Figure 16] JOB cardinality-constraint distribution (log10 bins)")
    print(f"  constraints: {summary['count']}, queries: {summary['num_queries']}, "
          f"cardinalities {summary['min']} .. {summary['max']:,}")
    for lo, count in zip(histogram["bin_edges"], histogram["counts"]):
        print(f"  10^{lo:>4.1f}+ : {'#' * min(int(count), 80)} ({count})")

    assert summary["count"] >= (100 if QUICK else 300)
    assert sum(histogram["counts"]) == summary["count"]
