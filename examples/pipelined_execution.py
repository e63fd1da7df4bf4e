"""Pipelined (run-batch) execution over regenerated data.

The executor's ``mode="pipelined"`` runs every plan through the run-batch
operators of ``repro.engine.pipeline``: each regenerated relation scans out
of the tuple generator as runs — one per summary row, standing for a window
of consecutive primary keys — filters and PK-FK joins are applied once per
run, and a cardinality-accumulating sink sums run lengths into the AQP — so
no relation is ever expanded into tuples, whatever scale the summary
regenerates to.  The script measures the memory-footprint gap between the
two modes (peak run rows per batch vs. full intermediate tables), asserts
the AQPs are identical, and demonstrates the serving-side
regenerate-then-verify loop.

Run with:  PYTHONPATH=src python examples/pipelined_execution.py
"""

from __future__ import annotations

import time

from repro import (
    Executor,
    RegenerationService,
    complex_workload,
    dynamic_database,
    extract_constraints,
    generate_database,
    tpcds_schema,
)
from repro.codd.scaling import scale_constraints


def main() -> None:
    schema = tpcds_schema(scale_factor=0.0005)
    client_db = generate_database(schema, seed=3)
    workload = complex_workload(schema, num_queries=40, seed=21)
    package = extract_constraints(client_db, workload)

    # ------------------------------------------------------------------ #
    # vendor side: regenerate at 20x the client scale, then verify
    # ------------------------------------------------------------------ #
    scaled = scale_constraints(package.constraints, 20.0, name="20x")
    service = RegenerationService(schema)
    summary = service.summarize(scaled)
    print(f"Summary regenerates {summary.total_rows():,} tuples "
          f"from {summary.nbytes():,} bytes")

    results = {}
    for mode in ("pipelined", "materialize"):
        database = dynamic_database(summary, schema, batch_size=65_536)
        executor = Executor(database, mode=mode)
        started = time.perf_counter()
        plans = executor.execute_workload(workload)
        elapsed = time.perf_counter() - started
        results[mode] = (plans, executor.stats, elapsed)

    pipelined, materialized = results["pipelined"], results["materialize"]
    assert [p.operator_cardinalities() for p in pipelined[0]] == \
        [p.operator_cardinalities() for p in materialized[0]], \
        "modes must produce identical AQPs"

    print(f"\nAQP collection over {len(workload)} queries "
          "(identical plans in both modes):")
    print("  mode          peak run rows in flight      wall time")
    for mode in ("materialize", "pipelined"):
        plans, stats, elapsed = results[mode]
        print(f"  {mode:12s}  {stats.peak_batch_rows:>15,d} run rows   "
              f"{elapsed * 1000:8.1f} ms")
    ratio = materialized[1].peak_batch_rows / max(pipelined[1].peak_batch_rows, 1)
    print(f"  -> pipelined execution holds {ratio:,.0f}x fewer rows in memory"
          " (materialize mode's rows are count-1 runs: tuples)")

    # ------------------------------------------------------------------ #
    # the same loop through the serving front-end
    # ------------------------------------------------------------------ #
    service.execute_workload(scaled, workload)   # AQP replay, warm summary
    report = service.verify(scaled)              # volumetric similarity
    stats = service.stats()
    print(f"\nServing path: {stats['workloads_executed']} workload replay, "
          f"{stats['verifications']} verification, "
          f"peak {stats['executor_peak_batch_rows']:,} run rows in flight, "
          f"{100 * report.fraction_within(0.01):.1f}% of CCs within 1%")
    service.close()


if __name__ == "__main__":
    main()
