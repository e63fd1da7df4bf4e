"""Figure 14 (table): data materialisation time at 10 / 100 / 1000 GB.

The paper reports minutes for Hydra versus hours-to-weeks for DataSynth.  We
measure both systems' per-row materialisation throughput at the benchmark
scale and extrapolate linearly to the paper's target sizes (both pipelines
are row-linear in this phase), printing the same three-row table.
"""

from __future__ import annotations

from repro.benchdata.tpcds import NOMINAL_ROW_COUNTS
from repro.datasynth.pipeline import DataSynth, DataSynthConfig
from repro.errors import LPTooLargeError
from repro.hydra.pipeline import Hydra
from repro.metrics.costmodel import ThroughputModel, format_duration, materialization_table
from repro.metrics.timing import Timer
from repro.tuplegen.generator import materialize_database


def test_fig14_materialization_time(tpcds_env):
    schema, ccs = tpcds_env["schema"], tpcds_env["wls"]

    hydra_result = Hydra(schema).build_summary(ccs)
    with Timer() as hydra_timer:
        synthetic = materialize_database(hydra_result.summary, schema)
    hydra_model = ThroughputModel(measured_rows=synthetic.total_rows(),
                                  measured_seconds=max(hydra_timer.seconds, 1e-3))

    datasynth_model = None
    try:
        with Timer() as datasynth_timer:
            result = DataSynth(schema, DataSynthConfig(seed=3)).generate(ccs)
        datasynth_model = ThroughputModel(
            measured_rows=result.database.total_rows(),
            measured_seconds=max(datasynth_timer.seconds, 1e-3),
        )
    except LPTooLargeError:  # pragma: no cover
        pass

    table = materialization_table(schema, NOMINAL_ROW_COUNTS, hydra_model, datasynth_model)
    print("\n[Figure 14] projected data materialisation time")
    print("  size        Hydra              DataSynth")
    for row in table:
        datasynth = format_duration(row["datasynth_seconds"]) if "datasynth_seconds" in row else "n/a"
        print(f"  {row['size_gb']:>5d} GB   {format_duration(row['hydra_seconds']):>14s}   {datasynth:>14s}")

    # Shape checks: Hydra is much faster at every size and scales linearly.
    if datasynth_model is not None:
        for row in table:
            assert row["hydra_seconds"] < row["datasynth_seconds"]
    assert table[1]["hydra_seconds"] > table[0]["hydra_seconds"]
