"""Pipelined vs. materialized execution: working set and equivalence.

Not a paper figure — this benchmark guards the engine property the serving
path depends on: AQP collection over a dynamically regenerated database in
pipelined mode scans every relation as run rows (one per summary row, each
standing for a window of consecutive keys), so it holds at most one batch
of runs in flight — bounded by the summary, not the regenerated scale —
produces cardinalities identical to table-at-a-time execution (whose
intermediates are whole tables, i.e. count-1 runs), and never pays a
full-relation materialisation.
"""

from __future__ import annotations

from conftest import QUICK

from repro.benchdata.tpcds import simple_workload
from repro.engine.executor import Executor
from repro.hydra.pipeline import Hydra
from repro.metrics.timing import Timer
from repro.tuplegen.generator import DEFAULT_BATCH_SIZE, dynamic_database

NUM_QUERIES = 10 if QUICK else 25


def test_pipelined_memory_footprint(tpcds_env):
    schema, ccs = tpcds_env["schema"], tpcds_env["wls"]
    summary = Hydra(schema).build_summary(ccs).summary
    workload = simple_workload(schema, num_queries=NUM_QUERIES, seed=3)

    runs = {}
    for mode in ("materialize", "pipelined"):
        executor = Executor(dynamic_database(summary, schema), mode=mode)
        with Timer() as timer:
            plans = executor.execute_workload(workload)
        runs[mode] = (plans, executor.stats, timer.seconds)

    print("\n[pipelined memory] AQP collection over"
          f" {NUM_QUERIES} queries, {summary.total_rows():,} regenerated tuples"
          f" from {sum(len(r) for r in summary.relations.values()):,} summary rows")
    print("  mode          peak run rows in flight    batches      wall (s)")
    for mode, (plans, stats, seconds) in runs.items():
        print(f"  {mode:12s}  {stats.peak_batch_rows:>19,d}   {stats.batches:>8,d}"
              f"   {seconds:9.3f}")

    # Equivalence: identical AQPs from both modes.
    materialized, pipelined = runs["materialize"], runs["pipelined"]
    assert [p.operator_cardinalities() for p in materialized[0]] == \
        [p.operator_cardinalities() for p in pipelined[0]]
    # Constant memory: the pipelined working set is bounded by the batch
    # size and by the largest relation's summary, not the regenerated scale.
    assert pipelined[1].peak_batch_rows <= DEFAULT_BATCH_SIZE
    assert pipelined[1].peak_batch_rows <= max(
        len(relation) for relation in summary.relations.values())
    assert materialized[1].peak_batch_rows >= pipelined[1].peak_batch_rows
