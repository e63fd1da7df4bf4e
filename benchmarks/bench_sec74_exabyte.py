"""Section 7.4: scaling to Big Data volumes (the exabyte scenario).

The paper models an exabyte-sized database by scaling the AQP cardinalities
obtained at 100 GB and shows that Hydra still builds the database summary in
under two minutes, because nothing in the pipeline depends on the data scale.
We reproduce the experiment by scaling our measured CCs to 10^18 bytes and
checking that summary size and construction time stay flat.  The exabyte
summary is then *verified* through the engine, regenerated on the fly: the
executor scans it as runs (one per summary row), so checking every CC over
~1.5e16 tuples costs what the summary costs, and the counts must equal the
analytic :func:`evaluate_on_summary` oracle exactly.
"""

from __future__ import annotations

from repro.codd.scaling import scale_constraints, scale_factor_for_bytes
from repro.hydra.pipeline import Hydra
from repro.metrics.similarity import evaluate_on_database, evaluate_on_summary
from repro.metrics.timing import Timer
from repro.tuplegen.generator import dynamic_database

EXABYTE = 10**18


def test_sec74_exabyte_summary_construction(tpcds_env):
    schema, database, ccs = tpcds_env["schema"], tpcds_env["database"], tpcds_env["wlc"]
    factor = scale_factor_for_bytes(schema, EXABYTE, database.row_counts())
    exabyte_ccs = scale_constraints(ccs, factor, name="WLc@1EB")

    result = Hydra(schema).build_summary(exabyte_ccs)
    baseline = Hydra(schema).build_summary(ccs)

    print("\n[Section 7.4] summary construction is independent of data scale")
    print(f"  benchmark scale : {baseline.summary.total_rows():>22,d} tuples described,"
          f" {baseline.summary.nbytes():>10,d} B summary, {baseline.total_seconds:6.1f}s")
    print(f"  exabyte scale   : {result.summary.total_rows():>22,d} tuples described,"
          f" {result.summary.nbytes():>10,d} B summary, {result.total_seconds:6.1f}s")

    with Timer() as verify_timer:
        verified = evaluate_on_database(
            exabyte_ccs, dynamic_database(result.summary, schema))
    oracle = evaluate_on_summary(exabyte_ccs, result.summary, schema)
    print(f"  exabyte verify  : {len(verified.results):>22,d} CCs counted through"
          f" the engine in {verify_timer.seconds:6.2f}s")

    # Shape checks: the summary describes a vastly larger database but its
    # size (number of rows / bytes) and build time stay in the same ballpark.
    assert result.summary.total_rows() > 10**12
    assert result.summary.nbytes() < 4 * baseline.summary.nbytes() + 10_000
    assert result.total_seconds < 120
    # The engine counts exactly what the summary says, at exabyte scale.
    assert [r.actual for r in verified.results] == [r.actual for r in oracle.results]
