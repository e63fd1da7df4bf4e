"""Replicated SummaryStore: propagation latency, warm reads and catch-up.

Not a paper figure — this benchmark guards the ``repro.cluster`` serving
properties: a put through a follower becomes visible on a *second*,
independently-tailing follower within a small multiple of its poll
interval; warm-hit reads on a follower replica stay on the local-disk
fast path (no leader round-trip); and a freshly-attached empty follower
drains a multi-hundred-record change-log backlog at bulk throughput
rather than one request per record.
"""

from __future__ import annotations

import statistics
import time

from conftest import QUICK

from repro.cluster import ReplicatedStore, StoreServer
from repro.service.store import SummaryStore
from repro.summary.relation_summary import DatabaseSummary, RelationSummary

REPL_PUTS = 12 if QUICK else 60
WARM_READS = 100 if QUICK else 600
#: The catch-up backlog stays at full size even in quick mode: draining a
#: couple hundred tiny records is what the metric *is*, and it is fast.
BACKLOG = 200
POLL_INTERVAL = 0.02


def _summary(seed: int, rows: int = 64) -> DatabaseSummary:
    summary = DatabaseSummary()
    per_value = max(1, rows // 4)
    summary.relations["S"] = RelationSummary(
        relation="S", primary_key="S_pk", columns=("A",),
        rows=[((seed * 10 + i,), per_value) for i in range(4)],
    )
    return summary


def _fp(seed: str) -> str:
    import hashlib

    return hashlib.sha256(seed.encode()).hexdigest()


def _percentile(samples, fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def test_store_replication(tmp_path):
    leader = SummaryStore(tmp_path / "leader")
    server = StoreServer(leader, port=0).start()
    writer = ReplicatedStore(server.url, tmp_path / "writer",
                             poll_interval=POLL_INTERVAL)
    observer = ReplicatedStore(server.url, tmp_path / "observer",
                               poll_interval=POLL_INTERVAL)
    try:
        # -- put -> replicated-visible latency ------------------------- #
        # The writer acks at the leader (read-your-writes); the observer
        # only learns about the record from its background tailer, so the
        # observed delta is the real replication propagation time.
        visible = []
        for i in range(REPL_PUTS):
            key = _fp(f"repl-{i}")
            started = time.perf_counter()
            writer.put_summary(key, _summary(i))
            while not observer.local.has_summary(key):
                time.sleep(0.001)
            visible.append(time.perf_counter() - started)
        p50 = statistics.median(visible)
        p99 = _percentile(visible, 0.99)

        # -- follower warm-hit vs plain local disk --------------------- #
        hot = _fp("repl-0")
        local = SummaryStore(tmp_path / "local")
        local.put_summary(hot, _summary(0))

        def read_many(store) -> float:
            started = time.perf_counter()
            for _ in range(WARM_READS):
                assert store.get_summary(hot) is not None
            return time.perf_counter() - started

        read_many(local)      # warm both memory layers before timing
        read_many(observer)
        disk_reads = read_many(local)
        follower_reads = read_many(observer)

        # -- catch-up throughput over a backlog ------------------------ #
        for i in range(BACKLOG):
            leader.put_summary(_fp(f"backlog-{i}"), _summary(i, rows=16))
        fresh = ReplicatedStore(server.url, tmp_path / "fresh",
                                poll_interval=POLL_INTERVAL,
                                start_tailer=False)
        try:
            started = time.perf_counter()
            applied = fresh.catch_up()
            catchup_seconds = time.perf_counter() - started
        finally:
            fresh.close()
        assert applied >= BACKLOG
        assert fresh.local.has_summary(_fp(f"backlog-{BACKLOG - 1}"))
        rate = applied / catchup_seconds
    finally:
        observer.close()
        writer.close()
        server.shutdown()

    print(f"\n[store replication] {REPL_PUTS} puts ->"
          f" replicated-visible p50 {p50 * 1e3:.1f}ms p99 {p99 * 1e3:.1f}ms"
          f" (poll interval {POLL_INTERVAL * 1e3:.0f}ms)")
    print(f"  warm-hit reads x{WARM_READS}: local disk {disk_reads:.4f}s,"
          f" follower replica {follower_reads:.4f}s")
    print(f"  catch-up: {applied} records in {catchup_seconds:.3f}s"
          f" ({rate:,.0f} records/s)")
    # Propagation is bounded by tail polling, not by data volume: even p99
    # stays within a handful of poll intervals plus apply time.
    assert p99 <= 50 * POLL_INTERVAL + 1.0
    # Warm hits never leave the local replica; allow generous timer noise.
    assert follower_reads <= max(5.0 * disk_reads, disk_reads + 0.25)
    assert rate > BACKLOG / 30.0  # i.e. the drain took well under 30s
