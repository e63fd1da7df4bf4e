"""The replicated store backend: leader writes, local replica reads.

A :class:`ReplicatedStore` is what a follower node mounts instead of a plain
disk store.  Reads (the serving hot path) are served from a local
:class:`~repro.service.store.SummaryStore` replica — zero network hops,
zero LP solves for warmed fingerprints — while writes are forwarded to the
leader's :class:`~repro.cluster.server.StoreServer` and become visible
locally by replaying the leader's change log:

* a background tailer polls ``GET /v1/log`` from the **last applied
  offset** (persisted in ``<root>/replica.json``, so a restarted follower
  resumes exactly where it stopped — no full resync);
* writes are read-your-writes: the leader acknowledges the change-log
  offset that made the put durable, and the writer catches up to at least
  that offset before returning;
* **gap detection** forces a full resync: a changed ``log_id`` (the leader
  was rebuilt), an applied offset ahead of the leader's log, or a tail
  window that fell behind the log's retained segments all mean the log can
  no longer be replayed — the follower then re-fetches the leader's full
  listings and reconciles its replica against them.

Replication telemetry lives on the replica's registry
(``repro_cluster_applied_offset``, ``repro_cluster_replication_lag_records``,
``repro_cluster_catchup_records_total``, ``repro_cluster_resyncs_total``,
``repro_cluster_leader_errors_total``) and every tail/apply batch runs under
a ``store.replicate`` trace span.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union
from urllib.parse import quote

from repro.cluster.server import STORE_WIRE_VERSION
from repro.errors import ClusterError, LeaderUnavailableError, SummaryStoreError
from repro.lp.model import LPSolution
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span as trace_span
from repro.service.store import (
    DEFAULT_MEMORY_ENTRIES,
    STORE_FORMAT,
    StoreSolutionCache,
    SummaryStore,
)
from repro.summary.relation_summary import DatabaseSummary

logger = get_logger("cluster.replica")

#: Default seconds between change-log polls of the background tailer.
DEFAULT_POLL_INTERVAL = 0.25

#: Records requested per ``GET /v1/log`` poll.
TAIL_BATCH = 500

#: Name of the follower's persisted replication state file.
REPLICA_STATE = "replica.json"


class LeaderClient:
    """Minimal JSON/HTTP client for one store server (stdlib only)."""

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def request(self, method: str, path: str,
                body: Optional[Mapping[str, object]] = None,
                allow_missing: bool = False) -> Optional[Dict[str, object]]:
        """One request; returns the decoded JSON payload.

        Raises :class:`LeaderUnavailableError` when the leader cannot be
        reached and :class:`ClusterError` on protocol-level failures.  With
        ``allow_missing`` a 404 returns ``None`` instead of raising.
        """
        data = None
        headers = {}
        if body is not None:
            envelope = dict(body)
            envelope.setdefault("version", STORE_WIRE_VERSION)
            data = json.dumps(envelope, separators=(",", ":")).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            if error.code == 404 and allow_missing:
                return None
            detail = ""
            try:
                detail = json.loads(error.read().decode("utf-8")).get("error", "")
            except Exception:
                pass
            raise ClusterError(
                f"leader {self.base_url} answered {error.code} for"
                f" {method} {path}: {detail}")
        except (urllib.error.URLError, ConnectionError, socket.timeout,
                TimeoutError, OSError) as error:
            raise LeaderUnavailableError(
                f"leader {self.base_url} is unreachable: {error}") from error
        except ValueError as error:
            raise ClusterError(
                f"leader {self.base_url} answered non-JSON for"
                f" {method} {path}: {error}") from error
        if not isinstance(payload, dict):
            raise ClusterError(f"leader {self.base_url} answered a"
                               f" non-object payload for {method} {path}")
        version = payload.get("version")
        if version != STORE_WIRE_VERSION:
            raise ClusterError(
                f"leader {self.base_url} speaks store wire version"
                f" {version!r}, this client speaks {STORE_WIRE_VERSION}")
        return payload


class ReplicatedStore:
    """Follower store backend: local reads, leader writes, log tailing.

    Parameters
    ----------
    leader_url:
        Base URL of the shard leader's :class:`StoreServer`.
    root:
        Local replica directory (same byte-identical layout as any disk
        store — a plain ``repro serve`` can mount it), or ``None`` for a
        private temporary one, deleted with the replica.
    poll_interval:
        Seconds between background change-log polls.
    timeout:
        Per-request HTTP timeout toward the leader.
    start_tailer:
        Start the background tail thread immediately (callers that want
        deterministic catch-up, e.g. tests and ``store replicate --once``,
        pass ``False`` and drive :meth:`catch_up` themselves).
    """

    def __init__(self, leader_url: str,
                 root: Optional[Union[str, Path]] = None, *,
                 poll_interval: float = DEFAULT_POLL_INTERVAL,
                 timeout: float = 10.0,
                 memory_entries: int = DEFAULT_MEMORY_ENTRIES,
                 max_store_bytes: Optional[int] = None,
                 max_entries: Optional[int] = None,
                 ttl_seconds: Optional[float] = None,
                 registry: Optional[MetricsRegistry] = None,
                 start_tailer: bool = True) -> None:
        if poll_interval <= 0:
            raise ClusterError("poll_interval must be positive")
        self.leader_url = leader_url.rstrip("/")
        self.client = LeaderClient(self.leader_url, timeout=timeout)
        self.local = SummaryStore(
            root, memory_entries=memory_entries,
            max_store_bytes=max_store_bytes, max_entries=max_entries,
            ttl_seconds=ttl_seconds, registry=registry)
        self.registry = self.local.registry
        self.root = self.local.root
        self.poll_interval = poll_interval
        self._g_applied = self.registry.gauge(
            "repro_cluster_applied_offset",
            "Last change-log offset this replica has applied")
        self._g_lag = self.registry.gauge(
            "repro_cluster_replication_lag_records",
            "Leader change-log records not yet applied locally (at the last"
            " poll)")
        self._c_caught = self.registry.counter(
            "repro_cluster_catchup_records_total",
            "Change-log records replayed onto the local replica")
        self._c_resyncs = self.registry.counter(
            "repro_cluster_resyncs_total",
            "Full resyncs forced by gap detection or lineage changes")
        self._c_leader_errors = self.registry.counter(
            "repro_cluster_leader_errors_total",
            "Requests to the leader that failed (unreachable or protocol"
            " error)")
        self._tail_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._state_path = self.root / REPLICA_STATE
        self._applied = 0
        self._log_id: Optional[str] = None
        self._load_state()
        self._g_applied.set(self._applied)
        if start_tailer:
            self.start()

    # ------------------------------------------------------------------ #
    # replication state
    # ------------------------------------------------------------------ #
    def _load_state(self) -> None:
        if not self._state_path.exists():
            return
        try:
            state = json.loads(self._state_path.read_text())
            self._applied = int(state["applied_offset"])
            self._log_id = state.get("log_id") or None
        except (ValueError, TypeError, KeyError) as error:
            # A torn state file is not fatal: offset 0 + no lineage simply
            # forces the next poll into a full resync.
            logger.warning("replica state %s is unreadable (%s); will resync",
                           self._state_path, error)
            self._applied, self._log_id = 0, None

    def _save_state(self) -> None:
        self._g_applied.set(self._applied)
        payload = json.dumps({"format": 1, "applied_offset": self._applied,
                              "log_id": self._log_id})
        SummaryStore._atomic_write(self._state_path, payload.encode("utf-8"))

    @property
    def applied_offset(self) -> int:
        """Last change-log offset applied to the local replica."""
        return self._applied

    # ------------------------------------------------------------------ #
    # tailing
    # ------------------------------------------------------------------ #
    def start(self) -> "ReplicatedStore":
        """Start the background tailer thread; returns ``self``."""
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._tail_loop, name="repro-store-tail", daemon=True)
            self._thread.start()
        return self

    def close(self) -> None:
        """Stop the tailer and persist the replication state."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        with self._tail_lock:
            self._save_state()

    def __enter__(self) -> "ReplicatedStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _tail_loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.catch_up()
            except LeaderUnavailableError:
                self._c_leader_errors.inc()
            except ClusterError as error:
                self._c_leader_errors.inc()
                logger.warning("tail poll failed: %s", error)
            self._stop.wait(self.poll_interval)

    def catch_up(self, to_offset: Optional[int] = None) -> int:
        """Replay leader change-log records onto the local replica.

        Tails until the leader has no more records (or, with ``to_offset``,
        until at least that offset is applied — the read-your-writes bound).
        Returns the applied offset.  Raises
        :class:`LeaderUnavailableError` when the leader cannot be reached.
        """
        with trace_span("store.replicate", leader=self.leader_url) as span:
            with self._tail_lock:
                applied = self._catch_up_locked(to_offset)
            span.set_attribute("applied_offset", applied)
        return applied

    def _catch_up_locked(self, to_offset: Optional[int]) -> int:
        while True:
            batch = self.client.request(
                "GET", f"/v1/log?from={self._applied + 1}&max={TAIL_BATCH}")
            if batch["log_id"] != self._log_id and self._log_id is not None:
                logger.warning("leader log lineage changed (%s -> %s):"
                               " full resync", self._log_id, batch["log_id"])
                self._resync_locked()
                continue
            if self._log_id is None:
                self._log_id = batch["log_id"]
            if batch.get("resync"):
                self._resync_locked()
                continue
            records = batch.get("records") or []
            for record in records:
                self._apply_locked(record)
            lag = max(0, int(batch["last_offset"]) - self._applied)
            self._g_lag.set(lag)
            self._save_state()
            if to_offset is not None and self._applied < to_offset \
                    and records:
                continue  # keep draining toward the acknowledged offset
            if len(records) >= TAIL_BATCH:
                continue  # a full batch: more records are likely waiting
            if to_offset is not None and self._applied < to_offset:
                raise ClusterError(
                    f"leader log ended at {self._applied} before the"
                    f" acknowledged offset {to_offset}")
            return self._applied

    def _apply_locked(self, record: Mapping[str, object]) -> None:
        try:
            offset = int(record["offset"])
            op = str(record["op"])
            kind = str(record["kind"])
            key = str(record["key"])
        except (KeyError, TypeError, ValueError) as error:
            raise ClusterError(f"malformed change-log record: {error}") \
                from error
        if offset <= self._applied:
            return  # idempotent re-delivery (e.g. right after a resync)
        if offset != self._applied + 1:
            logger.warning("change-log gap: applied=%d, next record=%d —"
                           " full resync", self._applied, offset)
            self._resync_locked()
            return
        if op == "put":
            self.local.apply_entry(kind, key, record.get("payload"))
        elif op == "delete":
            # A locally pinned summary is protected from the replicated
            # delete while a stream holds it; the next resync or local
            # compact reconciles.
            if not (kind == "summaries" and self.local.pin_count(key) > 0):
                self.local.delete_entry(kind, key)
        else:
            raise ClusterError(f"unknown change-log op {op!r}")
        self._applied = offset
        self._c_caught.inc()

    def _resync_locked(self) -> None:
        """Reconcile the whole replica against the leader's listings."""
        self._c_resyncs.inc()
        stats = self.client.request("GET", "/v1/stats")
        target_offset = int(stats["last_offset"])
        target_log_id = str(stats["log_id"])
        fetched = 0
        for kind in ("summaries", "components"):
            listing = self.client.request("GET", f"/v1/keys/{kind}")
            leader_keys = set(listing["keys"])
            local_keys = set(self.local.summary_fingerprints()
                             if kind == "summaries"
                             else self.local.component_keys())
            for key in sorted(local_keys - leader_keys):
                if kind == "summaries" and self.local.pin_count(key) > 0:
                    continue
                self.local.delete_entry(kind, key)
            for key in sorted(leader_keys):
                entry = self.client.request(
                    "GET", f"/v1/entry/{kind}/{quote(key)}",
                    allow_missing=True)
                if entry is None:
                    continue  # deleted while we resynced; the log covers it
                self.local.apply_entry(kind, key, entry["payload"])
                fetched += 1
        self._applied = target_offset
        self._log_id = target_log_id
        self._save_state()
        logger.info("full resync complete: %d entries fetched, applied"
                    " offset now %d", fetched, target_offset)

    def _refresh(self) -> None:
        """Best-effort synchronous catch-up (miss path); never raises."""
        try:
            self.catch_up()
        except (LeaderUnavailableError, ClusterError):
            self._c_leader_errors.inc()

    # ------------------------------------------------------------------ #
    # StoreBackend protocol: writes → leader
    # ------------------------------------------------------------------ #
    def put_summary(self, fingerprint: str, summary: DatabaseSummary,
                    meta: Optional[Mapping[str, object]] = None) -> None:
        """Write through the leader; local visibility before returning."""
        entry_meta = dict(meta or {})
        entry_meta.setdefault("total_rows", int(summary.total_rows()))
        entry_meta.setdefault("nbytes", int(summary.nbytes()))
        payload = {"format": STORE_FORMAT, "key": fingerprint,
                   "meta": entry_meta, "summary": summary.to_dict()}
        ack = self.client.request(
            "PUT", f"/v1/entry/summaries/{quote(fingerprint)}",
            body={"payload": payload})
        self.catch_up(to_offset=int(ack["offset"]))

    def put_component(self, key: str, solution: LPSolution) -> None:
        """Write one LP component solution through the leader."""
        payload = {"format": STORE_FORMAT, "key": key,
                   "values": [int(v) for v in solution.values],
                   "feasible": bool(solution.feasible),
                   "method": solution.method,
                   "max_violation": float(solution.max_violation)}
        ack = self.client.request(
            "PUT", f"/v1/entry/components/{quote(key)}",
            body={"payload": payload})
        self.catch_up(to_offset=int(ack["offset"]))

    def delete_entry(self, kind: str, key: str) -> bool:
        """Delete through the leader (the log replays it back locally)."""
        ack = self.client.request(
            "DELETE", f"/v1/entry/{kind}/{quote(key)}")
        self.catch_up(to_offset=int(ack["offset"]))
        return bool(ack["deleted"])

    # ------------------------------------------------------------------ #
    # StoreBackend protocol: reads ← local replica
    # ------------------------------------------------------------------ #
    def get_summary(self, fingerprint: str) -> Optional[DatabaseSummary]:
        summary = self.local.get_summary(fingerprint)
        if summary is not None:
            return summary
        # Cold miss: one synchronous catch-up covers the window between the
        # leader's ack and this replica's last poll, then a direct fetch
        # covers a replica that is still resyncing.
        self._refresh()
        summary = self.local.get_summary(fingerprint)
        if summary is not None:
            return summary
        try:
            entry = self.client.request(
                "GET", f"/v1/entry/summaries/{quote(fingerprint)}",
                allow_missing=True)
        except (LeaderUnavailableError, ClusterError):
            self._c_leader_errors.inc()
            return None
        if entry is None:
            return None
        try:
            self.local.apply_entry("summaries", fingerprint, entry["payload"])
        except SummaryStoreError:
            return None
        return self.local.get_summary(fingerprint)

    def read_summary(self, fingerprint: str) -> DatabaseSummary:
        try:
            return self.local.read_summary(fingerprint)
        except SummaryStoreError:
            self._refresh()
            return self.local.read_summary(fingerprint)

    def has_summary(self, fingerprint: str) -> bool:
        if self.local.has_summary(fingerprint):
            return True
        self._refresh()
        return self.local.has_summary(fingerprint)

    def get_component(self, key: str) -> Optional[LPSolution]:
        solution = self.local.get_component(key)
        if solution is not None:
            return solution
        self._refresh()
        solution = self.local.get_component(key)
        if solution is not None:
            return solution
        try:
            entry = self.client.request(
                "GET", f"/v1/entry/components/{quote(key)}",
                allow_missing=True)
        except (LeaderUnavailableError, ClusterError):
            self._c_leader_errors.inc()
            return None
        if entry is None:
            return None
        try:
            self.local.apply_entry("components", key, entry["payload"])
        except SummaryStoreError:
            return None
        return self.local.get_component(key)

    def solution_cache(self, memory_size: int = 256) -> StoreSolutionCache:
        """LP solver cache whose writes replicate through the leader."""
        return StoreSolutionCache(self, memory_size=max(1, memory_size))

    # ------------------------------------------------------------------ #
    # StoreBackend protocol: local-replica delegation
    # ------------------------------------------------------------------ #
    def summary_fingerprints(self) -> List[str]:
        return self.local.summary_fingerprints()

    def component_keys(self) -> List[str]:
        return self.local.component_keys()

    def entries(self) -> List[Dict[str, object]]:
        return self.local.entries()

    def entry_payload(self, kind: str, key: str) -> Dict[str, object]:
        return self.local.entry_payload(kind, key)

    def apply_entry(self, kind: str, key: str,
                    payload: Mapping[str, object]) -> None:
        self.local.apply_entry(kind, key, payload)

    def pin(self, fingerprint: str) -> None:
        self.local.pin(fingerprint)

    def unpin(self, fingerprint: str) -> None:
        self.local.unpin(fingerprint)

    def pinned(self, fingerprint: str):
        return self.local.pinned(fingerprint)

    def pin_count(self, fingerprint: str) -> int:
        return self.local.pin_count(fingerprint)

    def compact(self, *args: object, **kwargs: object) -> Dict[str, int]:
        """Local-replica GC only; the leader compacts its own store (and
        its deletions replicate through the log)."""
        return self.local.compact(*args, **kwargs)

    def counters(self) -> Dict[str, int]:
        return self.local.counters()

    def store_bytes(self) -> int:
        return self.local.store_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ReplicatedStore({self.leader_url!r}, {str(self.root)!r},"
                f" applied={self._applied})")
