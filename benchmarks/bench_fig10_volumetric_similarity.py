"""Figure 10: quality of volumetric similarity, Hydra vs DataSynth (WLs).

The paper plots, for the simplified workload WLs, the percentage of CCs whose
relative error stays within a given bound: Hydra satisfies ~90% exactly and
everything within ~10%, whereas DataSynth needs up to ~60% error for full
coverage and also produces negative errors (missing rows).
"""

from __future__ import annotations

from repro.datasynth.pipeline import DataSynth, DataSynthConfig
from repro.errors import LPTooLargeError
from repro.hydra.pipeline import Hydra
from repro.metrics.similarity import evaluate_on_database, evaluate_on_summary

THRESHOLDS = [0.0, 0.01, 0.05, 0.10, 0.20, 0.40, 0.60, 1.00]


def test_fig10_volumetric_similarity(tpcds_env):
    schema, ccs = tpcds_env["schema"], tpcds_env["wls"]

    hydra_result = Hydra(schema).build_summary(ccs)
    hydra_report = evaluate_on_summary(ccs, hydra_result.summary, schema)

    try:
        datasynth_result = DataSynth(schema, DataSynthConfig(seed=3)).generate(ccs)
        datasynth_report = evaluate_on_database(ccs, datasynth_result.database)
    except LPTooLargeError:  # pragma: no cover - depends on workload draw
        datasynth_report = None

    print("\n[Figure 10] % of CCs within a relative error bound (WLs)")
    print("  error bound   Hydra     DataSynth")
    for threshold in THRESHOLDS:
        hydra_pct = 100.0 * hydra_report.fraction_within(threshold)
        ds_pct = (100.0 * datasynth_report.fraction_within(threshold)
                  if datasynth_report else float("nan"))
        print(f"  {threshold:>10.2f}   {hydra_pct:6.1f}%   {ds_pct:6.1f}%")
    print(f"  Hydra negative-error CCs    : {hydra_report.fraction_negative():.1%}")
    if datasynth_report:
        print(f"  DataSynth negative-error CCs: {datasynth_report.fraction_negative():.1%}")

    # Shape checks: Hydra dominates DataSynth at every bound and produces no
    # negative errors (only additive integrity tuples).
    assert hydra_report.fraction_negative() == 0.0
    if datasynth_report is not None:
        for threshold in THRESHOLDS:
            assert hydra_report.fraction_within(threshold) >= \
                datasynth_report.fraction_within(threshold) - 0.05
