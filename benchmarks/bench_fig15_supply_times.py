"""Figure 15 (table): data supply times — disk scan vs dynamic generation.

The paper compares, for the five largest TPC-DS relations, the time to supply
tuples to the executor from a materialised relation on disk against the Tuple
Generator producing them on the fly from the summary, and finds dynamic
generation competitive or faster.  We reproduce the same table (at benchmark
scale) using the engine's two scan paths.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.benchdata.tpcds import LARGEST_RELATIONS
from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.hydra.pipeline import Hydra
from repro.metrics.timing import Timer
from repro.tuplegen.generator import dynamic_database, materialize_database
from repro.workload.query import Query


def test_fig15_data_supply_times(tpcds_env):
    schema, ccs = tpcds_env["schema"], tpcds_env["wlc"]
    summary = Hydra(schema).build_summary(ccs).summary

    with tempfile.TemporaryDirectory() as tmp:
        materialized = materialize_database(summary, schema)
        materialized.dump(Path(tmp))

        rows = []
        for relation in LARGEST_RELATIONS:
            query = Query(query_id=f"scan_{relation}", root=relation, relations=(relation,))

            disk_db = Database.load(schema, Path(tmp), name="disk")
            with Timer() as disk_timer:
                disk_rows = Executor(disk_db).execute(query).plan.output_cardinality()

            dyn_db = dynamic_database(summary, schema)
            with Timer() as dynamic_timer:
                dyn_rows = Executor(dyn_db).execute(query).plan.output_cardinality()

            assert disk_rows == dyn_rows
            rows.append((relation, disk_rows, disk_timer.seconds, dynamic_timer.seconds))

    print("\n[Figure 15] data supply times (disk scan vs dynamic generation)")
    print("  relation            rows        disk (s)   dynamic (s)")
    for relation, count, disk_seconds, dynamic_seconds in rows:
        print(f"  {relation:18s} {count:>10,d}   {disk_seconds:9.3f}   {dynamic_seconds:9.3f}")

    # Shape check: dynamic generation is competitive with reading from disk
    # (within 2x overall, and typically faster).  Both paths finish in
    # microseconds at reduced scale, where the ratio is pure timer noise, so
    # the relative check only applies above an absolute floor.
    # Both totals are sums of sequential single-threaded Timer spans (no
    # overlap), so summing them is wall-clock safe.
    total_disk = sum(r[2] for r in rows)
    total_dynamic = sum(r[3] for r in rows)
    assert total_dynamic <= max(2.0 * total_disk, 0.25)
