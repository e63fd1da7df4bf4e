"""Figure 9: distribution of cardinalities in the WLc constraint set.

The paper plots a histogram (log10 scale) of the 351 CC cardinalities derived
from the complex TPC-DS workload, spanning a few tuples up to ~1e9 rows at
the 100 GB scale.  We reproduce the same histogram after scaling the measured
cardinalities up to the nominal 100 GB configuration via the CODD path.
"""

from __future__ import annotations

from conftest import FACT_SCALE, QUICK

from repro.codd.scaling import scale_constraints


def test_fig09_cc_cardinality_distribution(tpcds_env):
    ccs = tpcds_env["wlc"]
    nominal = scale_constraints(ccs, 1.0 / FACT_SCALE, name="WLc@100GB")

    histogram = nominal.cardinality_histogram()
    summary = nominal.summary()
    print("\n[Figure 9] WLc cardinality-constraint distribution (log10 bins)")
    print(f"  constraints: {summary['count']}, queries: {summary['num_queries']}, "
          f"cardinalities {summary['min']} .. {summary['max']:,}")
    for lo, count in zip(histogram["bin_edges"], histogram["counts"]):
        print(f"  10^{lo:>4.1f}+ : {'#' * int(count)} ({count})")

    assert summary["count"] >= (100 if QUICK else 300)   # paper: 351 CCs
    assert summary["max"] >= 10**7            # wide dynamic range after scaling
    assert sum(histogram["counts"]) == summary["count"]
