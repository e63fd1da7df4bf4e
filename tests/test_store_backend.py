"""Conformance suite of the summary store, on both ways to open one.

A :class:`SummaryStore` opened on a directory and a rootless one (its
private temporary directory) must satisfy the same observable contract:
summary/component round-trips, listings, pin/compact interplay and
counters.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.lp.model import LPSolution
from repro.api import RegenConfig
from repro.service.store import SummaryStore, open_store
from repro.summary.relation_summary import DatabaseSummary, RelationSummary

BACKENDS = ("disk", "rootless")


def make_summary(rows: int = 100, values: int = 4) -> DatabaseSummary:
    """A small synthetic one-relation summary (regenerates ``rows`` rows)."""
    summary = DatabaseSummary()
    per_row = max(1, rows // values)
    summary.relations["S"] = RelationSummary(
        relation="S", primary_key="S_pk", columns=("A",),
        rows=[((i,), per_row) for i in range(values)],
    )
    return summary


def make_solution(n: int = 3) -> LPSolution:
    return LPSolution(values=np.arange(1, n + 1, dtype=np.int64),
                      feasible=True, method="test")


def fp(seed: str) -> str:
    """A syntactically valid 64-hex fingerprint derived from ``seed``."""
    import hashlib

    return hashlib.sha256(seed.encode()).hexdigest()


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    """One store per way of opening it."""
    if request.param == "disk":
        return SummaryStore(tmp_path / "disk")
    return SummaryStore(None)


class TestConformance:
    def test_summary_round_trip(self, backend):
        key = fp("round-trip")
        summary = make_summary(rows=60)
        assert backend.get_summary(key) is None
        assert not backend.has_summary(key)
        backend.put_summary(key, summary, meta={"engine": "test"})
        assert backend.has_summary(key)
        fetched = backend.get_summary(key)
        assert fetched is not None
        assert fetched.total_rows() == summary.total_rows()
        assert backend.read_summary(key).total_rows() == summary.total_rows()
        assert key in backend.summary_fingerprints()
        entries = backend.entries()
        assert any(entry["fingerprint"] == key for entry in entries)

    def test_component_round_trip(self, backend):
        key = fp("component") + "-abc"
        assert backend.get_component(key) is None
        backend.put_component(key, make_solution())
        fetched = backend.get_component(key)
        assert fetched is not None
        assert fetched.feasible
        assert list(fetched.values) == [1, 2, 3]
        assert key in backend.component_keys()

    def test_pin_protects_from_compact(self, backend):
        pinned, victim = fp("pinned"), fp("victim")
        backend.put_summary(pinned, make_summary())
        backend.put_summary(victim, make_summary())
        with backend.pinned(pinned):
            assert backend.pin_count(pinned) == 1
            backend.compact(max_entries=0)
            assert backend.has_summary(pinned)
            assert not backend.has_summary(victim)
        assert backend.pin_count(pinned) == 0

    def test_counters_and_stats(self, backend):
        key = fp("counted")
        backend.put_summary(key, make_summary())
        backend.get_summary(key)
        backend.get_summary(fp("absent"))
        counters = backend.counters()
        for name in ("summaries", "components", "store_bytes",
                     "summary_hits", "summary_misses", "corrupt_entries",
                     "evictions", "expirations"):
            assert name in counters, name
            assert counters[name] >= 0
        assert counters["summaries"] >= 1
        assert backend.store_bytes() == counters["store_bytes"]

    def test_solution_cache_shares_backend(self, backend):
        cache = backend.solution_cache(memory_size=4)
        key = fp("cache") + "-sig"
        assert cache.get(key) is None
        cache.put(key, make_solution(2))
        assert cache.get(key) is not None
        assert key in backend.component_keys()


class TestRootless:
    def test_directory_lives_and_dies_with_the_store(self):
        store = SummaryStore(None)
        root = store.root
        store.put_summary(fp("ephemeral"), make_summary())
        assert root.is_dir() and root.name.startswith("repro-store-")
        del store
        gc.collect()
        assert not root.exists()

    def test_two_rootless_stores_never_share_entries(self):
        first, second = SummaryStore(None), SummaryStore(None)
        assert first.root != second.root
        first.put_summary(fp("mine"), make_summary())
        first.put_component(fp("part") + "-sig", make_solution())
        assert not second.has_summary(fp("mine"))
        assert second.summary_fingerprints() == []
        assert second.component_keys() == []


class TestDiskSpecific:
    def test_corrupt_file_counted_not_fatal(self, tmp_path):
        store = SummaryStore(tmp_path / "store")
        key = fp("gz")
        store.put_summary(key, make_summary())
        path = next((tmp_path / "store" / "summaries").rglob("*.json.gz"))
        path.write_bytes(b"not gzip at all")
        fresh = SummaryStore(tmp_path / "store")
        assert fresh.get_summary(key) is None
        assert fresh.counters()["corrupt_entries"] >= 1

    def test_disk_backend_is_summary_store(self, tmp_path):
        """``open_store`` returns the disk store, and a directory written by
        one opens unchanged under the other."""
        old = SummaryStore(tmp_path / "store")
        key = fp("compat")
        old.put_summary(key, make_summary())
        reopened = open_store(tmp_path / "store")
        assert type(reopened) is SummaryStore
        assert isinstance(reopened.get_summary(key), DatabaseSummary)

    def test_open_store_takes_the_config_caps(self, tmp_path):
        config = RegenConfig(max_store_bytes=4096, max_entries=3,
                             ttl_seconds=60.0)
        store = open_store(tmp_path / "store", config=config)
        assert (store.max_store_bytes, store.max_entries,
                store.ttl_seconds) == (4096, 3, 60.0)
        bare = open_store(tmp_path / "bare")
        assert (bare.max_store_bytes, bare.max_entries,
                bare.ttl_seconds) == (None, None, None)
