"""Store lifecycle under cold-build churn: cap adherence and warm latency.

Not a paper figure — this benchmark guards the serving-fleet hardening
properties: a summary store capped at ``max_store_bytes`` stays under its
cap across continuous cold-build churn with ``compact()`` GC passes, evicts
strictly LRU-first (the warm-hit entry always survives), and the warm-hit
read path for surviving entries is not measurably slowed by lifecycle
bookkeeping (recency touches + occasional compaction).
"""

from __future__ import annotations

import time

from conftest import QUICK

from repro.hydra.pipeline import Hydra
from repro.service.store import SummaryStore

CHURN_PUTS = 40 if QUICK else 200
WARM_READS = 200 if QUICK else 1_000


def test_store_churn_cap_and_warm_latency(tmp_path, tpcds_env):
    schema, ccs = tpcds_env["schema"], tpcds_env["wls"]
    summary = Hydra(schema).build_summary(ccs).summary

    # Size the cap at ~4 entries, then churn many distinct "cold builds"
    # (same summary payload under distinct fingerprints) through the store.
    probe = SummaryStore(tmp_path / "probe")
    probe.put_summary("0" * 64, summary)
    entry_bytes = probe.store_bytes()
    cap = 4 * entry_bytes + entry_bytes // 2

    store = SummaryStore(tmp_path / "store", max_store_bytes=cap)
    hot = "f" * 64
    store.put_summary(hot, summary)
    over_cap = 0
    for i in range(CHURN_PUTS):
        store.put_summary(f"{i:04d}" * 16, summary)
        store.get_summary(hot)  # keep the hot entry most-recently-used
        if store.compact()["store_bytes"] > cap:
            over_cap += 1

    counters = store.counters()
    assert over_cap == 0, f"{over_cap} churn steps left the store over its cap"
    assert counters["store_bytes"] <= cap
    assert counters["evictions"] >= CHURN_PUTS - 4
    # Strictly LRU: the continuously-touched hot entry survived every pass.
    assert store.has_summary(hot)

    # Warm-hit latency of a surviving entry: measure the uncapped baseline
    # store and the churned, capped store on the same read path.
    def read_many(target: SummaryStore, fingerprint: str) -> float:
        started = time.perf_counter()
        for _ in range(WARM_READS):
            assert target.get_summary(fingerprint) is not None
        return time.perf_counter() - started

    read_many(probe, "0" * 64)  # warm both paths before timing
    read_many(store, hot)
    baseline = read_many(probe, "0" * 64)
    capped = read_many(store, hot)

    print(f"\n[store churn] {CHURN_PUTS} cold puts through a {cap:,}-byte cap:"
          f" {counters['evictions']} evictions,"
          f" final occupancy {counters['store_bytes']:,} bytes")
    print(f"  warm-hit reads x{WARM_READS}: uncapped {baseline:.4f}s,"
          f" capped+churned {capped:.4f}s")
    # "Unchanged" with headroom for timer noise on sub-ms loops: lifecycle
    # bookkeeping must not turn the memory-layer hit into a slow path.
    assert capped <= max(5.0 * baseline, baseline + 0.25)
