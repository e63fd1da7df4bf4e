"""Figure 12: number of LP variables per relation, Hydra vs DataSynth (WLc).

The paper reports reductions of many orders of magnitude: e.g. catalog_sales
drops from ~5.5 million grid variables to ~1620 regions, and item from ~1e11
to ~3700.  We reproduce the per-relation comparison; grid counts are computed
arithmetically so astronomically large formulations are reported rather than
materialised.
"""

from __future__ import annotations

from conftest import QUICK, WLC_REGION_VARIABLES

from repro.metrics.lpsize import compare_lp_sizes


def test_fig12_lp_variables_per_relation(tpcds_env):
    schema, ccs = tpcds_env["schema"], tpcds_env["wlc"]

    comparison = compare_lp_sizes(schema, ccs)

    print("\n[Figure 12] LP variables per relation (WLc)")
    print("  relation                  region (Hydra)    grid (DataSynth)    reduction")
    for relation, region, grid, reduction in comparison.rows():
        print(f"  {relation:22s} {region:>14,d} {grid:>19,.0f} {reduction:>12,.0f}x")

    region_total = comparison.total("region")
    grid_total = comparison.total("grid")
    print(f"  TOTAL                  {region_total:>14,d} {grid_total:>19,.0f}")

    # The region formulation size is deterministic for a fixed environment:
    # any growth is a formulation change and should be a conscious refresh
    # of WLC_REGION_VARIABLES.
    widest = max(comparison.region.values())
    assert region_total <= WLC_REGION_VARIABLES[0]
    assert widest <= WLC_REGION_VARIABLES[1]

    # Shape checks: the region formulation is consistently smaller (by orders
    # of magnitude for the widest views at full constant diversity) and every
    # relation stays within a few thousand variables (paper: <= ~3700).
    assert grid_total > region_total
    widest_reduction = max(comparison.reduction_factor(r) for r in comparison.relations())
    assert widest_reduction >= (2 if QUICK else 5)
    assert widest <= 20_000
