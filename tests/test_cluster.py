"""The replicated store fleet: change log, leader/follower.

In-process tests cover the :class:`ChangeLog` durability contract (dense
offsets, segment rotation, torn-tail recovery, retention gaps) and the full
leader/follower loop — bootstrap, read-your-writes, restart resume,
lineage-change resync, delete replication and the request-body cap.  A
final two-process test mirrors the CI ``cluster-smoke`` phase over the real
CLI: a leader subprocess, two follower serving front-ends on empty
directories, one of which is killed mid-run while the other keeps serving
with zero LP solves.
"""

from __future__ import annotations

import json
import subprocess
import sys
import urllib.error
import urllib.request

import pytest

from repro.cluster import (
    ChangeLog,
    LeaderClient,
    ReplicatedStore,
    StoreServer,
)
from repro.cluster.server import STORE_WIRE_VERSION
from repro.errors import ChangeLogError, LeaderUnavailableError
from repro.service.store import SummaryStore

from tests.test_server_cli import cli_env, read_line, run_cli
from tests.test_store_backend import fp, make_solution, make_summary


class TestChangeLog:
    def test_offsets_are_dense_and_durable(self, tmp_path):
        log = ChangeLog(tmp_path / "log")
        assert log.last_offset == 0
        assert log.append("put", "summaries", "k1", {"a": 1}) == 1
        assert log.append("delete", "summaries", "k1") == 2
        records = log.read(1)
        assert [r["offset"] for r in records] == [1, 2]
        assert records[0]["payload"] == {"a": 1}
        assert records[1]["op"] == "delete"
        log.close()
        # reopen: same lineage, same tail
        reopened = ChangeLog(tmp_path / "log")
        assert reopened.last_offset == 2
        assert reopened.log_id == log.log_id
        assert reopened.append("put", "components", "c", {}) == 3

    def test_segment_rotation_and_cross_segment_read(self, tmp_path):
        log = ChangeLog(tmp_path / "log", segment_max_bytes=200)
        for i in range(1, 21):
            log.append("put", "summaries", f"k{i}", {"n": i})
        segments = sorted((tmp_path / "log").glob("segment-*.jsonl"))
        assert len(segments) > 1
        records = log.read(1, max_records=100)
        assert [r["offset"] for r in records] == list(range(1, 21))
        # positioned read starts mid-log, spanning segments
        assert [r["offset"] for r in log.read(9, max_records=5)] \
            == [9, 10, 11, 12, 13]

    def test_torn_tail_is_truncated_on_reopen(self, tmp_path):
        log = ChangeLog(tmp_path / "log")
        log.append("put", "summaries", "k1", {})
        log.append("put", "summaries", "k2", {})
        log.close()
        tail = sorted((tmp_path / "log").glob("segment-*.jsonl"))[-1]
        with open(tail, "ab") as handle:
            handle.write(b'{"offset": 3, "op": "put", "ki')  # crash mid-append
        reopened = ChangeLog(tmp_path / "log")
        assert reopened.last_offset == 2
        # the torn line is gone and the next append reuses its offset
        assert reopened.append("put", "summaries", "k3", {}) == 3
        assert [r["key"] for r in reopened.read(1)] == ["k1", "k2", "k3"]

    def test_pruned_history_raises_gap(self, tmp_path):
        log = ChangeLog(tmp_path / "log", segment_max_bytes=200)
        for i in range(1, 21):
            log.append("put", "summaries", f"k{i}", {"n": i})
        log.close()
        segments = sorted((tmp_path / "log").glob("segment-*.jsonl"))
        segments[0].unlink()  # simulate retention pruning the oldest segment
        reopened = ChangeLog(tmp_path / "log", segment_max_bytes=200)
        assert reopened.first_offset > 1
        with pytest.raises(ChangeLogError):
            reopened.read(1)
        assert reopened.read(reopened.first_offset)

    def test_rejects_bad_input(self, tmp_path):
        log = ChangeLog(tmp_path / "log")
        with pytest.raises(ChangeLogError):
            log.append("merge", "summaries", "k")
        with pytest.raises(ChangeLogError):
            log.read(0)
        log.close()
        with pytest.raises(ChangeLogError):
            log.append("put", "summaries", "k", {})


@pytest.fixture
def leader(tmp_path):
    """A started leader over a disk store, torn down cleanly."""
    store = SummaryStore(tmp_path / "leader")
    server = StoreServer(store, port=0).start()
    yield server
    server.shutdown()


def follower(server: StoreServer, root, **kwargs) -> ReplicatedStore:
    kwargs.setdefault("poll_interval", 0.05)
    kwargs.setdefault("start_tailer", False)
    return ReplicatedStore(server.url, root, **kwargs)


class TestReplication:
    def test_bootstrap_seeds_full_history(self, tmp_path):
        """A leader opened on a store with pre-server history logs it all,
        so an empty-directory follower catches up without a snapshot."""
        store = SummaryStore(tmp_path / "leader")
        key = fp("pre-existing")
        store.put_summary(key, make_summary(rows=40))
        store.put_component("c" * 64, make_solution())
        with StoreServer(store, port=0) as server:
            assert server.log.last_offset == 2
            replica = follower(server, tmp_path / "replica")
            replica.catch_up()
            assert replica.applied_offset == 2
            fetched = replica.local.get_summary(key)
            assert fetched is not None
            assert fetched.total_rows() == 40
            assert replica.local.get_component("c" * 64) is not None
            replica.close()

    def test_read_your_writes_through_leader(self, tmp_path, leader):
        writer = follower(leader, tmp_path / "writer")
        reader = follower(leader, tmp_path / "reader")
        key = fp("ryw")
        writer.put_summary(key, make_summary(rows=80))
        # the writer sees its own write locally without any further poll
        assert writer.local.has_summary(key)
        # a second replica needs one catch-up, then reads locally
        reader.catch_up()
        assert reader.local.has_summary(key)
        assert reader.get_summary(key).total_rows() == 80
        writer.close()
        reader.close()

    def test_restart_resumes_from_applied_offset(self, tmp_path, leader):
        key = fp("resume")
        replica = follower(leader, tmp_path / "replica")
        replica.put_summary(key, make_summary())
        applied = replica.applied_offset
        replica.close()
        # a new process over the same directory resumes, not resyncs
        reopened = follower(leader, tmp_path / "replica")
        assert reopened.applied_offset == applied
        leader.store.put_summary(fp("while-down"), make_summary())
        reopened.catch_up()
        assert reopened.applied_offset == applied + 1
        assert reopened.local.has_summary(fp("while-down"))
        assert reopened.registry.snapshot().get(
            "repro_cluster_resyncs_total", 0) == 0
        reopened.close()

    def test_lineage_change_forces_full_resync(self, tmp_path):
        store = SummaryStore(tmp_path / "leader")
        key = fp("lineage")
        server = StoreServer(store, port=0).start()
        replica = follower(server, tmp_path / "replica")
        replica.put_summary(key, make_summary())
        server.shutdown()
        # rebuild the leader's log from scratch: new log_id, new offsets
        for path in sorted((tmp_path / "leader" / "changelog").iterdir()):
            path.unlink()
        server = StoreServer(store, port=0).start()
        try:
            replica.client = LeaderClient(server.url)
            replica.leader_url = server.url
            store.put_summary(fp("after-rebuild"), make_summary())
            replica.catch_up()
            assert replica.local.has_summary(key)
            assert replica.local.has_summary(fp("after-rebuild"))
            assert replica.registry.snapshot()[
                "repro_cluster_resyncs_total"] == 1
            replica.close()
        finally:
            server.shutdown()

    def test_delete_and_compact_replicate(self, tmp_path, leader):
        replica = follower(leader, tmp_path / "replica")
        keep, drop = fp("keep"), fp("drop")
        replica.put_summary(keep, make_summary())
        replica.put_summary(drop, make_summary())
        assert replica.delete_entry("summaries", drop) is True
        assert not replica.local.has_summary(drop)
        # leader-side compaction deletions flow through the log too
        leader.store.put_summary(fp("evictme"), make_summary())
        replica.catch_up()
        leader.store.compact(max_entries=1)
        replica.catch_up()
        assert (set(replica.local.summary_fingerprints())
                == set(leader.store.summary_fingerprints()))
        replica.close()

    def test_leader_down_reads_stay_local(self, tmp_path):
        store = SummaryStore(tmp_path / "leader")
        server = StoreServer(store, port=0).start()
        replica = follower(server, tmp_path / "replica")
        key = fp("offline")
        replica.put_summary(key, make_summary(rows=32))
        server.shutdown()
        # reads keep serving from the replica; writes fail loudly
        assert replica.get_summary(key).total_rows() == 32
        assert replica.has_summary(key)
        with pytest.raises(LeaderUnavailableError):
            replica.put_summary(fp("unwritable"), make_summary())
        replica.close()


class TestStoreServerWire:
    def test_oversized_put_answers_413(self, tmp_path):
        # The 413 itself (and its counter) is the kernel's, checked for both
        # servers in tests/test_http_kernel.py; what is the store's own is
        # that a refused PUT is neither applied nor journaled.
        store = SummaryStore(tmp_path / "leader")
        server = StoreServer(store, port=0, max_request_bytes=512).start()
        try:
            body = json.dumps({"version": 1, "payload": {
                "format": 1, "pad": "x" * 2048}}).encode()
            request = urllib.request.Request(
                f"{server.url}/v1/entry/summaries/{fp('big')}",
                data=body, method="PUT",
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=10)
            assert info.value.code == 413
            assert json.loads(info.value.read())["version"] == \
                STORE_WIRE_VERSION
            assert not store.has_summary(fp("big"))
            assert server.log.last_offset == 0
        finally:
            server.shutdown()

    def test_wire_version_mismatch_answers_400(self, tmp_path, leader):
        body = json.dumps({"version": 99, "payload": {}}).encode()
        request = urllib.request.Request(
            f"{leader.url}/v1/entry/summaries/{fp('ver')}",
            data=body, method="PUT",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400

    def test_log_endpoint_signals_resync_when_ahead(self, tmp_path, leader):
        leader.store.put_summary(fp("one"), make_summary())
        client = LeaderClient(leader.url)
        batch = client.request("GET", "/v1/log?from=999")
        assert batch["resync"] is True
        assert batch["records"] == []
        ok = client.request("GET", "/v1/log?from=1")
        assert ok["resync"] is False
        assert len(ok["records"]) == 1

    def test_healthz_and_stats(self, tmp_path, leader):
        with urllib.request.urlopen(leader.url + "/healthz", timeout=10) as r:
            health = json.loads(r.read())
        assert health["role"] == "leader"
        assert health["log_id"] == leader.log.log_id
        stats = LeaderClient(leader.url).request("GET", "/v1/stats")
        assert stats["counters"]["summaries"] == 0
        assert stats["first_offset"] == 1


class TestServiceOverReplicatedStore:
    def test_service_mounts_replicated_store(self, tmp_path, toy_schema):
        """A RegenerationService given store_url serves warm fingerprints
        from the replica with zero pipeline runs."""
        from repro.api.config import RegenConfig
        from repro.service.service import RegenerationService

        leader_store = SummaryStore(tmp_path / "leader")
        key = fp("served")
        leader_store.put_summary(key, make_summary(rows=48))
        with StoreServer(leader_store, port=0) as server:
            config = RegenConfig(store_url=server.url)
            service = RegenerationService(
                toy_schema, store=str(tmp_path / "replica"), config=config)
            try:
                assert isinstance(service.store, ReplicatedStore)
                assert service.store.has_summary(key)
                replicated = service.store.get_summary(key)
                assert replicated.total_rows() == 48
                # the replica regenerates the exact table the leader would
                import numpy as np

                from repro.tuplegen.generator import TupleGenerator

                ours = TupleGenerator(replicated.relation("S")).materialize()
                theirs = TupleGenerator(
                    leader_store.get_summary(key).relation("S")).materialize()
                assert ours.column_names == theirs.column_names
                for column in ours.column_names:
                    assert np.array_equal(ours.column(column),
                                          theirs.column(column))
                assert service.stats()["pipeline_runs"] == 0
            finally:
                service.close()
                service.store.close()


FLAGS = ["--scale", "0.0002", "--queries", "3", "--workload", "simple"]


class TestClusterSmokeCLI:
    def test_leader_two_followers_kill_one(self, tmp_path):
        """The CI cluster-smoke phase, in-repo: warm a leader, bring up two
        follower serving front-ends on empty directories, verify both serve
        the fingerprint with zero LP solves, kill one mid-run, and check the
        survivor still serves."""
        leader_dir = str(tmp_path / "leader")

        warm = run_cli("summarize", "--store", leader_dir, *FLAGS)
        assert warm.returncode == 0, warm.stderr
        fingerprint = next(
            line.split("=", 1)[1] for line in warm.stdout.splitlines()
            if line.startswith("fingerprint="))

        procs = []
        try:
            leader = subprocess.Popen(
                [sys.executable, "-m", "repro", "store", "serve",
                 "--store", leader_dir, "--listen", "127.0.0.1:0"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=cli_env())
            procs.append(leader)
            banner = read_line(leader, timeout=60)
            assert banner.startswith("listening on http://")
            leader_url = banner.split()[2]

            followers = []
            for name in ("f1", "f2"):
                proc = subprocess.Popen(
                    [sys.executable, "-m", "repro", "serve",
                     "--store", str(tmp_path / name),
                     "--store-url", leader_url,
                     "--fingerprint", fingerprint, *FLAGS,
                     "--require-warm", "--listen", "127.0.0.1:0"],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    text=True, env=cli_env())
                procs.append(proc)
                followers.append(proc)

            urls = []
            for proc in followers:
                banner = read_line(proc, timeout=120)
                assert f"fingerprint={fingerprint}" in banner
                assert "warm=True" in banner
                urls.append(banner.split()[2])

            for url in urls:
                with urllib.request.urlopen(url + "/metrics",
                                            timeout=30) as r:
                    metrics = r.read().decode()
                assert "repro_lp_components_solved_total 0" in metrics

            # kill follower 1 mid-run; follower 2 keeps serving
            followers[0].kill()
            followers[0].wait(timeout=30)
            with urllib.request.urlopen(urls[1] + "/healthz", timeout=30) as r:
                assert json.loads(r.read())["status"] == "ok"
            with urllib.request.urlopen(
                    urls[1] + f"/v1/stream/{fingerprint}/item",
                    timeout=60) as r:
                total = int(r.headers["X-Repro-Total-Rows"])
                rows = [json.loads(line) for line in r.read().splitlines()]
            assert total and len(rows) == total
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait(timeout=30)
