"""Tests for store lifecycle management (GC/TTL/size caps, pinning) and the
regeneration service's fair admission scheduling.

Covers the serving-fleet hardening acceptance criteria: a size-capped store
stays under its cap after ``compact()`` and evicts strictly LRU-first; a
pinned / in-flight entry is never evicted mid-read; a noisy tenant's cold
burst is throttled while a quiet tenant keeps being admitted; and the
admission/GC counters account every admit, reject, eviction and failure
exactly — including under concurrent mixed warm/cold/failing traffic.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.api.config import RegenConfig
from repro.constraints.cc import CardinalityConstraint
from repro.constraints.workload import ConstraintSet
from repro.errors import (
    ServiceClosedError,
    ServiceOverloadedError,
    SummaryStoreError,
)
from repro.hydra.pipeline import HydraResult
from repro.predicates.dnf import DNFPredicate
from repro.service.service import RegenerationService
from repro.service.store import SummaryStore
from repro.summary.relation_summary import DatabaseSummary, RelationSummary


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #
def make_summary(rows: int = 100, values: int = 4) -> DatabaseSummary:
    """A small synthetic one-relation summary (regenerates ``rows`` rows)."""
    summary = DatabaseSummary()
    per_row = max(1, rows // values)
    summary.relations["S"] = RelationSummary(
        relation="S", primary_key="S_pk", columns=("A",),
        rows=[((i,), per_row) for i in range(values)],
    )
    return summary


def make_ccs(cardinality: int, name: str = "ccs") -> ConstraintSet:
    """Distinct cardinalities produce distinct request fingerprints."""
    ccs = ConstraintSet(name=name)
    ccs.add(CardinalityConstraint("S", DNFPredicate.true(), cardinality))
    return ccs


def put_with_time(store: SummaryStore, fingerprint: str,
                  summary: DatabaseSummary, at: float) -> None:
    """Persist an entry and pin its recency to an explicit timestamp."""
    store.put_summary(fingerprint, summary)
    store._touch("summaries", fingerprint, now=at)


class _RecordingBuild:
    """Stands in for ``Hydra.build_summary`` in scheduling tests: fast
    synthetic builds stored under the pipeline's own fingerprint, an
    optional start gate, a record of build start order, and scripted
    failures (any constraint set whose name contains ``fail`` raises)."""

    def __init__(self, pipeline) -> None:
        self.pipeline = pipeline
        self.gate: "threading.Event | None" = None
        self.started: list = []
        self.first_started = threading.Event()

    def __call__(self, constraints, relations=None):
        self.started.append(constraints.name)
        self.first_started.set()
        if self.gate is not None:
            assert self.gate.wait(timeout=30)
        if "fail" in constraints.name:
            raise RuntimeError(f"scripted failure for {constraints.name}")
        summary = make_summary(rows=sum(cc.cardinality for cc in constraints))
        self.pipeline.store.put_summary(
            self.pipeline.request_fingerprint(constraints, relations), summary)
        return HydraResult(summary=summary)


def lifecycle_service(schema, store=None, **knobs) -> RegenerationService:
    """A service whose pipeline builds through a :class:`_RecordingBuild`
    (reachable as ``service.pipeline.build_summary``)."""
    service = RegenerationService(schema, store=store,
                                  config=RegenConfig(**knobs))
    service.pipeline.build_summary = _RecordingBuild(service.pipeline)
    return service


# ---------------------------------------------------------------------- #
# store lifecycle: TTL, size caps, LRU order, pinning
# ---------------------------------------------------------------------- #
class TestStoreLifecycle:
    def test_negative_caps_rejected(self, tmp_path):
        with pytest.raises(SummaryStoreError, match="max_entries"):
            SummaryStore(tmp_path / "store", max_entries=-1)

    def test_ttl_expiration(self, tmp_path):
        store = SummaryStore(tmp_path / "store", ttl_seconds=10.0)
        base = time.time()
        put_with_time(store, "a" * 64, make_summary(), base - 60.0)
        put_with_time(store, "b" * 64, make_summary(), base - 1.0)
        report = store.compact(now=base)
        assert report["expired"] == 1 and report["evicted"] == 0
        assert store.summary_fingerprints() == ["b" * 64]
        assert store.get_summary("a" * 64) is None
        assert store.counters()["expirations"] == 1

    def test_eviction_is_strictly_lru_first(self, tmp_path):
        store = SummaryStore(tmp_path / "store")
        base = time.time()
        order = ["d" * 64, "b" * 64, "e" * 64, "a" * 64, "c" * 64]
        for age, fingerprint in enumerate(reversed(order)):
            put_with_time(store, fingerprint, make_summary(), base - age)
        # A warm read refreshes recency: the oldest entry becomes the newest.
        oldest = order[0]
        assert store.get_summary(oldest) is not None
        store._touch("summaries", oldest, now=base + 1)
        report = store.compact(max_entries=2, max_store_bytes=None,
                               ttl_seconds=None, now=base + 2)
        assert report["evicted"] == 3
        assert store.summary_fingerprints() == sorted([oldest, order[-1]])

    def test_size_cap_under_churn_stays_under_cap(self, tmp_path):
        entry_bytes = None
        store = SummaryStore(tmp_path / "store")
        store.put_summary("0" * 64, make_summary())
        entry_bytes = store.store_bytes()
        cap = 3 * entry_bytes + entry_bytes // 2
        store = SummaryStore(tmp_path / "store", max_store_bytes=cap)
        for i in range(1, 12):  # continuous churn of fresh cold builds
            store.put_summary(f"{i:02d}" * 32, make_summary())
            assert store.compact()["store_bytes"] <= cap
            assert store.store_bytes() <= cap
        # Exact accounting: the running counters match a fresh rescan.
        fresh = SummaryStore(tmp_path / "store").counters()
        counters = store.counters()
        assert counters["store_bytes"] == fresh["store_bytes"] <= cap
        assert counters["summaries"] == fresh["summaries"]
        # The most recent entry always survives churn.
        assert f"11" * 32 in store.summary_fingerprints()

    def test_warm_hit_unchanged_for_survivors(self, tmp_path):
        store = SummaryStore(tmp_path / "store", max_entries=1)
        put_with_time(store, "a" * 64, make_summary(), time.time() - 5)
        store.put_summary("b" * 64, make_summary())
        store.compact()
        before = store.counters()
        # The surviving entry still serves straight from the memory layer:
        # a hit, no corruption, no pipeline involvement.
        assert store.get_summary("b" * 64) is not None
        after = store.counters()
        assert after["summary_hits"] == before["summary_hits"] + 1
        assert after["summary_misses"] == before["summary_misses"]
        reopened = SummaryStore(tmp_path / "store")
        assert reopened.get_summary("b" * 64) is not None

    def test_pinned_entry_never_evicted(self, tmp_path):
        store = SummaryStore(tmp_path / "store")
        base = time.time()
        put_with_time(store, "a" * 64, make_summary(), base - 100)
        put_with_time(store, "b" * 64, make_summary(), base - 50)
        store.pin("a" * 64)
        try:
            report = store.compact(max_entries=0, max_store_bytes=None,
                                   ttl_seconds=1.0, now=base)
            # "a" is both LRU-oldest and TTL-expired, yet pinned: survives.
            assert store.summary_fingerprints() == ["a" * 64]
            assert report["expired"] == 1 and report["evicted"] == 0
        finally:
            store.unpin("a" * 64)
        report = store.compact(max_entries=0, max_store_bytes=None,
                               ttl_seconds=None, now=base)
        assert report["evicted"] == 1
        assert store.summary_fingerprints() == []

    def test_touch_files_share_recency_across_processes(self, tmp_path):
        base = time.time()
        writer = SummaryStore(tmp_path / "store")
        put_with_time(writer, "a" * 64, make_summary(), base - 100)
        put_with_time(writer, "b" * 64, make_summary(), base - 10)
        # A *different* store instance (= another process on the shared
        # filesystem) reads "a", refreshing its on-disk recency marker.
        reader = SummaryStore(tmp_path / "store")
        assert reader.get_summary("a" * 64) is not None
        report = writer.compact(max_entries=1, max_store_bytes=None,
                                ttl_seconds=None)
        assert report["evicted"] == 1
        # The writer honours the reader's touch: "b" was the LRU entry.
        assert writer.summary_fingerprints() == ["a" * 64]

    def test_memory_only_lifecycle(self):
        store = SummaryStore(None, max_entries=2)
        base = time.time()
        for age, key in enumerate(("c" * 64, "b" * 64, "a" * 64)):
            store.put_summary(key, make_summary())
            store._touch("summaries", key, now=base - (3 - age))
        assert store.counters()["summaries"] == 2  # auto-compacted on put
        report = store.compact(max_entries=1, max_store_bytes=None,
                               ttl_seconds=None, now=base)
        assert report["evicted"] == 1
        assert store.summary_fingerprints() == ["a" * 64]
        report = store.compact(max_entries=None, max_store_bytes=None,
                               ttl_seconds=0.5, now=base + 10)
        assert report["expired"] == 1
        assert store.counters()["summaries"] == 0
        assert store.counters()["store_bytes"] == 0

    def test_compact_skips_entries_touched_after_scan(self, tmp_path,
                                                      monkeypatch):
        # Regression: a GC pass deciding on a stale recency snapshot must
        # not expire/evict an entry that was warm-hit (or rebuilt) between
        # the scan and the unlink.
        store = SummaryStore(tmp_path / "store")
        base = time.time()
        put_with_time(store, "a" * 64, make_summary(), base - 100)
        put_with_time(store, "b" * 64, make_summary(), base - 90)
        original_scan = store._scan_candidates

        def scan_then_touch():
            candidates = original_scan()
            # A warm hit lands right after the scan, before any deletion.
            store._touch("summaries", "a" * 64, now=base)
            return candidates

        monkeypatch.setattr(store, "_scan_candidates", scan_then_touch)
        report = store.compact(max_store_bytes=None, max_entries=None,
                               ttl_seconds=50.0, now=base)
        # Only the untouched entry expired; the just-used one survived.
        assert report["expired"] == 1
        assert store.summary_fingerprints() == ["a" * 64]

    def test_compact_sweeps_orphan_touch_files(self, tmp_path):
        store = SummaryStore(tmp_path / "store")
        store.put_summary("a" * 64, make_summary())
        # Another process evicted the entry but its sidecar lingered.
        orphan = store._touch_path("summaries", "b" * 64)
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.touch()
        store.compact()
        assert not orphan.exists()
        assert store._touch_path("summaries", "a" * 64).exists()

    def test_touch_never_resurrects_evicted_entries(self, tmp_path):
        writer = SummaryStore(tmp_path / "store")
        writer.put_summary("a" * 64, make_summary())
        reader = SummaryStore(tmp_path / "store")
        assert reader.get_summary("a" * 64) is not None  # now in memory layer
        # Another process evicts the entry (and its sidecar) from disk.
        writer.compact(max_entries=0, max_store_bytes=None, ttl_seconds=None)
        assert not writer._touch_path("summaries", "a" * 64).exists()
        # The reader's memory-layer hit must not re-create the sidecar.
        assert reader.get_summary("a" * 64) is not None
        assert not reader._touch_path("summaries", "a" * 64).exists()

    def test_compact_counts_are_exact(self, tmp_path):
        store = SummaryStore(tmp_path / "store")
        base = time.time()
        for i in range(6):
            put_with_time(store, f"{i}" * 64, make_summary(), base - 50 + i)
        report = store.compact(max_entries=2, max_store_bytes=None,
                               ttl_seconds=45.0, now=base)
        # 0..4 are older than the TTL? no: ages are 50-i seconds; 45s TTL
        # expires i=0..4 (ages 50..46); i=5 (age 45.0) is exactly at the
        # boundary and survives both passes.
        assert report["expired"] == 5
        assert report["evicted"] == 0
        assert store.counters()["expirations"] == 5
        assert store.counters()["evictions"] == 0
        assert store.summary_fingerprints() == ["5" * 64]
        assert store.counters()["store_bytes"] == \
            SummaryStore(tmp_path / "store").counters()["store_bytes"]


# ---------------------------------------------------------------------- #
# submission-failure bugfix: no hung waiters, no leaked slots
# ---------------------------------------------------------------------- #
class TestSubmitFailure:
    def test_pool_shutdown_racing_submit_fails_the_flight(self, toy_schema):
        service = lifecycle_service(toy_schema, max_pending=1)
        # Simulate the race: the raw pool is torn down without close().
        service._executor.shutdown(wait=True)
        ticket = service.submit(make_ccs(100))
        assert ticket.done()
        with pytest.raises(ServiceClosedError, match="worker pool rejected"):
            ticket.result(timeout=1.0)
        stats = service.stats()
        assert stats["pipeline_failures"] == 1
        assert stats["pipeline_runs"] == 0
        # The fingerprint was unregistered and the max_pending slot did not
        # leak: a fresh submission is admitted (and fails the same way,
        # rather than being rejected as over-capacity).
        assert service._flights == {}
        ticket2 = service.submit(make_ccs(200))
        with pytest.raises(ServiceClosedError):
            ticket2.result(timeout=1.0)
        assert service.stats()["rejected_submissions"] == 0

    def test_submit_after_close_raises_closed(self, toy_schema, tmp_path):
        store = SummaryStore(tmp_path / "store")
        service = lifecycle_service(toy_schema, store=store)
        warm_ccs = make_ccs(100)
        service.summarize(warm_ccs, timeout=30)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(make_ccs(999))
        # Warm serving keeps working after close.
        ticket = service.submit(warm_ccs)
        assert ticket.warm and ticket.result(timeout=1.0) is not None

    def test_build_failures_are_counted(self, toy_schema):
        with lifecycle_service(toy_schema) as service:
            ticket = service.submit(make_ccs(7, name="fail-7"))
            with pytest.raises(RuntimeError, match="scripted failure"):
                ticket.result(timeout=30)
            stats = service.stats()
            assert stats["pipeline_failures"] == 1
            assert stats["pipeline_runs"] == 1
            assert service._flights == {}
            row = service.service_stats().tenant("default")
            assert row.failed == 1 and row.completed == 0


# ---------------------------------------------------------------------- #
# fair admission
# ---------------------------------------------------------------------- #
class TestFairAdmission:
    def test_noisy_tenant_throttled_quiet_tenant_admitted(self, toy_schema):
        service = lifecycle_service(toy_schema, max_workers=1,
                                    max_pending_per_tenant=2)
        gate = threading.Event()
        service.pipeline.build_summary.gate = gate
        tickets = []
        tickets.append(service.submit(make_ccs(101), tenant="noisy"))
        service.pipeline.build_summary.first_started.wait(timeout=30)
        tickets.append(service.submit(make_ccs(102), tenant="noisy"))
        for cardinality in (103, 104):  # cold burst beyond the tenant cap
            with pytest.raises(ServiceOverloadedError, match="noisy"):
                service.submit(make_ccs(cardinality), tenant="noisy")
        # The quiet tenant is not starved by the noisy burst.
        tickets.append(service.submit(make_ccs(201), tenant="quiet"))
        gate.set()
        for ticket in tickets:
            assert ticket.result(timeout=30) is not None
        stats = service.service_stats()
        noisy, quiet = stats.tenant("noisy"), stats.tenant("quiet")
        assert noisy.admitted == 2 and noisy.rejected == 2
        assert noisy.completed == 2 and noisy.failed == 0
        assert quiet.admitted == 1 and quiet.rejected == 0
        assert quiet.completed == 1
        counters = stats.counters
        # Every request is accounted exactly once.
        assert counters["requests"] == 5
        assert counters["misses"] == noisy.admitted + quiet.admitted == 3
        assert counters["rejected_submissions"] == noisy.rejected == 2
        assert counters["pipeline_runs"] == 3
        assert counters["queue_depth"] == 0
        service.close()

    def test_fifo_within_tenant_round_robin_across(self, toy_schema):
        service = lifecycle_service(toy_schema, max_workers=1)
        recorder = service.pipeline.build_summary
        gate = threading.Event()
        recorder.gate = gate
        first = service.submit(make_ccs(100, name="a-0"), tenant="a")
        recorder.first_started.wait(timeout=30)
        later = [
            service.submit(make_ccs(101, name="a-1"), tenant="a"),
            service.submit(make_ccs(102, name="a-2"), tenant="a"),
            service.submit(make_ccs(200, name="b-0"), tenant="b"),
        ]
        gate.set()
        for ticket in [first, *later]:
            ticket.result(timeout=30)
        # Round-robin: from b's arrival the slots alternate — b's build
        # runs ahead of a's backlog tail — while a's own builds stay FIFO.
        assert recorder.started == ["a-0", "a-1", "b-0", "a-2"]
        service.close()

    def test_new_tenant_gets_no_catch_up_credit(self, toy_schema):
        # Regression: with lifetime dispatch counts, a tenant first seen
        # late in a busy period started at 0 and monopolised every build
        # slot until it "caught up".  Round-robin dispatch keeps no
        # history, so slots alternate from arrival onward.
        service = lifecycle_service(toy_schema, max_workers=1)
        recorder = service.pipeline.build_summary
        gate = threading.Event()
        recorder.gate = gate
        first = service.submit(make_ccs(100, name="old-0"), tenant="old")
        recorder.first_started.wait(timeout=30)
        established = [
            service.submit(make_ccs(101 + i, name=f"old-{1 + i}"), tenant="old")
            for i in range(3)
        ]
        newcomer = [
            service.submit(make_ccs(200 + i, name=f"new-{i}"), tenant="new")
            for i in range(3)
        ]
        gate.set()
        for ticket in [first, *established, *newcomer]:
            ticket.result(timeout=30)
        # The newcomer's backlog must not run as one uninterrupted block
        # ahead of the established tenant's queued builds.
        tail = recorder.started[1:]
        assert tail != ["new-0", "new-1", "new-2", "old-1", "old-2", "old-3"]
        assert sum(1 for name in tail[:4] if name.startswith("old")) >= 2
        service.close()

    def test_single_flight_dedups_across_tenants(self, toy_schema):
        service = lifecycle_service(toy_schema, max_workers=1)
        gate = threading.Event()
        service.pipeline.build_summary.gate = gate
        ccs = make_ccs(42)
        one = service.submit(ccs, tenant="a")
        service.pipeline.build_summary.first_started.wait(timeout=30)
        two = service.submit(ccs, tenant="b")
        assert two.fingerprint == one.fingerprint
        gate.set()
        assert two.result(timeout=30) is one.result(timeout=30)
        stats = service.stats()
        assert stats["inflight_dedup"] == 1 and stats["pipeline_runs"] == 1
        service.close()


# ---------------------------------------------------------------------- #
# service-level GC and stream pinning
# ---------------------------------------------------------------------- #
class TestServiceGC:
    def test_gc_respects_inflight_stream_then_collects(self, toy_schema, tmp_path):
        store = SummaryStore(tmp_path / "store")
        with lifecycle_service(toy_schema, store=store) as service:
            ccs = make_ccs(100)
            fingerprint = service.submit(ccs).fingerprint
            service.summarize(ccs, timeout=30)
            cursor = service.stream(fingerprint, "S", batch_size=25)
            rows = next(cursor).num_rows  # mid-read: the entry is pinned
            assert store.pin_count(fingerprint) == 1
            report = store.compact(max_entries=0, max_store_bytes=None,
                                   ttl_seconds=None)
            assert report["evicted"] == 0
            assert store.has_summary(fingerprint)
            for batch in cursor:  # eviction never broke the stream
                rows += batch.num_rows
            assert rows == 100
            assert store.pin_count(fingerprint) == 0
            report = store.compact(max_entries=0, max_store_bytes=None,
                                   ttl_seconds=None)
            assert report["evicted"] == 1
            assert not store.has_summary(fingerprint)

    def test_stream_pins_eagerly_before_first_batch(self, toy_schema, tmp_path):
        # Regression: the pin used to be taken lazily at the cursor's first
        # next(), leaving a window in which GC could evict the entry of a
        # handed-out-but-not-yet-iterated stream.
        store = SummaryStore(tmp_path / "store")
        with lifecycle_service(toy_schema, store=store) as service:
            ccs = make_ccs(100)
            fingerprint = service.submit(ccs).fingerprint
            service.summarize(ccs, timeout=30)
            cursor = service.stream(fingerprint, "S", batch_size=25)
            assert store.pin_count(fingerprint) == 1  # pinned before next()
            report = store.compact(max_entries=0, max_store_bytes=None,
                                   ttl_seconds=None)
            assert report["evicted"] == 0 and store.has_summary(fingerprint)
            assert sum(b.num_rows for b in cursor) == 100
            assert store.pin_count(fingerprint) == 0
            # An abandoned cursor releases its pin on close() too.
            abandoned = service.stream(fingerprint, "S", batch_size=25)
            assert store.pin_count(fingerprint) == 1
            abandoned.close()
            assert store.pin_count(fingerprint) == 0

    def test_gc_drops_generators_of_evicted_summaries(self, toy_schema,
                                                      tmp_path):
        # Regression: the per-(fingerprint, relation) tuple generators and
        # wire encoders outlived their store entries, so an evicted summary
        # stayed in memory for the life of the service.
        from repro.server.wire import ndjson_encoder

        store = SummaryStore(tmp_path / "store")
        with lifecycle_service(toy_schema, store=store) as service:
            for cardinality in (100, 200, 300):
                ccs = make_ccs(cardinality, name=f"ccs-{cardinality}")
                assert sum(b.num_rows for b in service.stream(ccs, "S")) \
                    == cardinality
                assert b"".join(service.stream_encoded(ccs, "S",
                                                       ndjson_encoder))
            assert len(service._generators) == 3
            assert len(service._encoders) == 3
            assert store.compact(max_entries=0)["evicted"] == 3
            service.gc()
            assert service._generators == {}
            assert service._encoders == {}

    def test_background_gc_thread_expires_entries(self, toy_schema, tmp_path):
        store = SummaryStore(tmp_path / "store", ttl_seconds=0.05)
        service = lifecycle_service(toy_schema, store=store, gc_interval=0.05)
        try:
            put_with_time(store, "a" * 64, make_summary(),
                          time.time() - 10.0)
            deadline = time.time() + 10.0
            while time.time() < deadline:
                if service.stats()["expirations"] >= 1:
                    break
                time.sleep(0.02)
            stats = service.stats()
            assert stats["gc_runs"] >= 1
            assert stats["expirations"] >= 1
            assert not store.has_summary("a" * 64)
        finally:
            service.close()
        # The GC thread is stopped by close().
        assert service._gc_thread is not None
        assert not service._gc_thread.is_alive()


    def test_one_background_thread_runs_gc_and_reaping(self, toy_schema,
                                                       tmp_path):
        before = set(threading.enumerate())
        store = SummaryStore(tmp_path / "store", ttl_seconds=60.0)
        service = lifecycle_service(toy_schema, store=store, gc_interval=0.05,
                                    cursor_idle_timeout=0.2)
        try:
            started = [thread for thread in set(threading.enumerate()) - before
                       if thread.name.startswith("regen-")]
            assert started == [service._gc_thread]
            ticket = service.submit(make_ccs(100))
            ticket.result(timeout=30)
            fingerprint = ticket.fingerprint
            cursor = service.stream(fingerprint, "S", batch_size=10)
            next(cursor)
            deadline = time.time() + 10.0
            while time.time() < deadline:
                stats = service.stats()
                if stats["gc_runs"] >= 2 and stats["cursors_reaped"] >= 1:
                    break
                time.sleep(0.02)
            stats = service.stats()
            assert stats["gc_runs"] >= 2 and stats["cursors_reaped"] == 1
            assert store.pin_count(fingerprint) == 0
        finally:
            service.close()
        left = [thread.name for thread in set(threading.enumerate()) - before
                if thread.name.startswith("regen")]
        assert left == []

# ---------------------------------------------------------------------- #
# concurrent stress: mixed warm/cold/failing traffic under small caps
# ---------------------------------------------------------------------- #
class TestConcurrentStress:
    def test_no_hung_waiters_no_leaked_flights_no_starvation(self, toy_schema,
                                                             tmp_path):
        store = SummaryStore(tmp_path / "store", max_store_bytes=None)
        service = lifecycle_service(toy_schema, store=store, max_workers=2,
                                    max_pending_per_tenant=3)
        warm_ccs = make_ccs(1, name="warm")
        service.summarize(warm_ccs, timeout=30)
        warm_fingerprint = service.fingerprint(warm_ccs)
        warm_rows = service.total_rows(warm_fingerprint, "S")

        outcomes = {"completed": 0, "failed": 0, "rejected": 0, "warm": 0}
        outcome_lock = threading.Lock()
        errors: list = []

        def record(key):
            with outcome_lock:
                outcomes[key] += 1

        def run(tenant, base, count, failing_every):
            for i in range(count):
                kind = "fail" if failing_every and i % failing_every == 0 \
                    else "ok"
                ccs = make_ccs(base + i, name=f"{tenant}-{kind}-{i}")
                try:
                    ticket = service.submit(ccs, tenant=tenant)
                except ServiceOverloadedError:
                    record("rejected")
                    continue
                except BaseException as error:  # pragma: no cover
                    errors.append(error)
                    continue
                try:
                    ticket.result(timeout=30)
                    record("completed")
                except RuntimeError:
                    record("failed")
                except BaseException as error:  # pragma: no cover
                    errors.append(error)

        def run_warm(count):
            for _ in range(count):
                try:
                    ticket = service.submit(warm_ccs, tenant="warm-reader")
                    assert ticket.result(timeout=30) is not None
                    record("warm")
                except BaseException as error:  # pragma: no cover
                    errors.append(error)

        def run_stream(count):
            for _ in range(count):
                try:
                    total = sum(b.num_rows for b in service.stream(
                        warm_fingerprint, "S", batch_size=3))
                    assert total == warm_rows
                    service.gc()  # churn GC under live streams
                except BaseException as error:  # pragma: no cover
                    errors.append(error)

        threads = (
            [threading.Thread(target=run, args=("noisy", 1000 + 100 * i, 12, 4))
             for i in range(3)]
            + [threading.Thread(target=run, args=("quiet", 5000, 4, 0))]
            + [threading.Thread(target=run_warm, args=(10,)),
               threading.Thread(target=run_stream, args=(6,))]
        )
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "hung waiter: thread did not finish"
        assert errors == []

        service.close()
        stats = service.service_stats()
        counters = stats.counters
        # No leaked flights or queued builds.
        assert service._flights == {}
        assert counters["queue_depth"] == 0
        # Exact accounting: every submission is admitted, served warm,
        # deduplicated or rejected...
        assert counters["requests"] == counters["misses"] + counters["hits"] \
            + counters["inflight_dedup"] + counters["rejected_submissions"]
        # ...every admitted build completed or failed, per tenant...
        for row in stats.tenants:
            assert row.admitted == row.completed + row.failed
            assert row.queued == 0 and row.running == 0
        assert sum(r.admitted for r in stats.tenants) == counters["misses"]
        assert sum(r.rejected for r in stats.tenants) \
            == counters["rejected_submissions"]
        assert sum(r.failed for r in stats.tenants) \
            == counters["pipeline_failures"]
        # ...and the caller-observed outcomes agree with the telemetry.
        assert outcomes["rejected"] == counters["rejected_submissions"]
        assert outcomes["failed"] == counters["pipeline_failures"]
        # The quiet tenant was never starved: all its submissions admitted
        # (it never holds more than one pending build, far under the cap).
        quiet = stats.tenant("quiet")
        assert quiet.admitted == 4 and quiet.rejected == 0


# ---------------------------------------------------------------------- #
# config / session threading
# ---------------------------------------------------------------------- #
class TestLifecycleConfig:
    def test_config_validates_lifecycle_knobs(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="max_store_bytes"):
            RegenConfig(max_store_bytes=-1)
        with pytest.raises(ConfigError, match="gc_interval"):
            RegenConfig(gc_interval=0)
        config = RegenConfig(max_store_bytes=1 << 20, max_entries=8,
                             ttl_seconds=60.0, gc_interval=5.0,
                             max_pending_per_tenant=2)
        assert config.max_entries == 8

    def test_session_threads_lifecycle_knobs(self, toy_schema, tmp_path):
        from repro.api.session import Session

        config = RegenConfig(max_store_bytes=1 << 20,
                             max_entries=8, ttl_seconds=60.0,
                             max_pending_per_tenant=2)
        session = Session(toy_schema, config=config, store=tmp_path / "store")
        assert session.store.max_store_bytes == 1 << 20
        assert session.store.max_entries == 8
        assert session.store.ttl_seconds == 60.0
        with session.serve() as service:
            assert service.store is session.store
            assert service.config.max_pending_per_tenant == 2
            assert service._gc_thread is None
        tuned = Session(toy_schema, config=config.replace(gc_interval=30.0),
                        store=session.store)
        with tuned.serve() as service:
            assert service._gc_thread is not None

    def test_service_opens_path_store_with_config_caps(self, toy_schema, tmp_path):
        config = RegenConfig(max_entries=3,
                             ttl_seconds=120.0)
        with RegenerationService(toy_schema, store=tmp_path / "store",
                                 config=config) as service:
            assert service.store.max_entries == 3
            assert service.store.ttl_seconds == 120.0
