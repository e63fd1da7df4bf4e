"""The store server: one backend exposed over versioned wire JSON + a log.

A :class:`StoreServer` makes a :class:`~repro.service.store.SummaryStore`
the *leader* of a replication group: every mutation that reaches the store —
HTTP puts and deletes, and the deletes a ``compact()`` pass performs — is
appended to an :class:`~repro.cluster.log.ChangeLog` (fsynced ``log.jsonl``
segments under ``<root>/changelog/``) before the request is acknowledged,
and followers tail that log over ``GET /v1/log``.

Endpoints (a route table on :mod:`repro.server.kernel`, which owns the
listener, body limits, reply writers and error → status mapping):

* ``GET /v1/entry/<kind>/<key>`` / ``PUT`` / ``DELETE`` — one entry's raw
  store payload (``kind`` is ``summaries`` or ``components``); a ``PUT``
  answers the change-log offset that made it durable;
* ``GET /v1/keys/<kind>`` — all keys of one kind;
* ``GET /v1/log?from=N&max=M`` — change-log records from offset ``N``;
  answers ``resync: true`` instead of records when ``N`` precedes the
  oldest retained record or the follower's lineage does not match;
* ``POST /v1/compact`` — run a GC pass (its deletions are logged);
* ``POST /v1/pin/<fp>`` / ``POST /v1/unpin/<fp>`` — refcounted pins;
* ``GET /v1/stats``, ``GET /metrics``, ``GET /healthz`` — telemetry.

A server opened on a store directory with history but an empty change log
first *bootstraps* the log: every existing entry is appended as a ``put``
record, so the log is a complete replayable history from offset 1 and a
follower mounted on an empty directory needs no side-channel snapshot.

Requests and responses carry ``"version": 1`` envelopes; bodies are bounded
by the same ``max_request_bytes`` cap as the serving front-end (oversized →
**413**).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.cluster.log import ChangeLog
from repro.errors import ClusterError, ServiceError, SummaryStoreError
from repro.obs.logging import get_logger
from repro.obs.trace import span as trace_span
from repro.server.kernel import MAX_BODY_BYTES, HTTPKernel, Request
from repro.server.wire import WireFormatError
from repro.service.store import SummaryStore

logger = get_logger("cluster.server")

#: Version tag of the store wire protocol; bump on incompatible changes.
STORE_WIRE_VERSION = 1

#: Most records one ``GET /v1/log`` response carries.
MAX_LOG_BATCH = 500

_KINDS = ("summaries", "components")


class StoreServer(HTTPKernel):
    """Leader HTTP server over one disk-backed store + its change log.

    Parameters
    ----------
    store:
        The :class:`~repro.service.store.SummaryStore` to serve.  The
        server attaches the change log as the store's journal, so *every*
        mutation — HTTP or in-process — is replicated.
    host / port:
        Listen address; ``port=0`` binds an ephemeral port.
    max_request_bytes:
        Request body cap (oversized → 413), shared with the serving
        front-end's knob.
    """

    def __init__(self, store: SummaryStore, host: str = "127.0.0.1",
                 port: int = 0, *, max_request_bytes: int = MAX_BODY_BYTES) -> None:
        if max_request_bytes < 1:
            raise ServiceError("max_request_bytes must be at least 1")
        self.store = store
        self.registry = store.registry
        self.max_request_bytes = max_request_bytes
        self.log = ChangeLog(store.root / "changelog", registry=self.registry)
        self._bootstrap_log()
        store.attach_journal(self.log)
        super().__init__(
            _StoreHandler, host, port,
            self.registry.counter(
                "repro_cluster_server_requests_total",
                "Store-server HTTP requests, by endpoint and status code",
                labelnames=("endpoint", "code")))
        logger.info("store server bound on %s:%d (root=%s, last_offset=%d)",
                    self.host, self.port, store.root, self.log.last_offset)

    def _bootstrap_log(self) -> None:
        """Seed an empty change log from pre-existing store entries.

        Keeps the invariant that the log is a complete history: replaying
        it from offset 1 onto an empty directory reproduces the store."""
        if self.log.last_offset > 0:
            return
        seeded = 0
        for kind in _KINDS:
            for key in _list_keys(self.store, kind):
                try:
                    payload = self.store.entry_payload(kind, key)
                except SummaryStoreError as error:
                    logger.warning("bootstrap skips corrupt %s entry %s: %s",
                                   kind, key[:12], error)
                    continue
                self.log.append("put", kind, key, payload)
                seeded += 1
        if seeded:
            logger.info("bootstrapped change log with %d existing entries",
                        seeded)

    def shutdown(self) -> None:
        """Stop the listener, detach the journal and close the log."""
        if not super().shutdown():
            return
        self.store.attach_journal(None)
        self.log.close()
        logger.info("store server on %s:%d closed", self.host, self.port)

    def metrics_text(self) -> str:
        # Refresh occupancy gauges before the scrape, like /v1/stats does.
        self.store.counters()
        return super().metrics_text()


def _list_keys(store: SummaryStore, kind: str) -> List[str]:
    return (store.summary_fingerprints() if kind == "summaries"
            else store.component_keys())


class _StoreHandler(Request):
    """The store leader's endpoints; every JSON reply and request body
    carries the ``"version"`` envelope."""

    server_version = "repro-store"

    #: A store that rejects a payload or a knob is the client's error.
    statuses = (*Request.statuses, (SummaryStoreError, 400))

    def send_json(self, code: int, payload: Dict[str, object],
                  extra: Iterable[Tuple[str, str]] = ()) -> int:
        payload.setdefault("version", STORE_WIRE_VERSION)
        return super().send_json(code, payload, extra)

    def _read_body(self) -> Dict[str, object]:
        body = self.read_json()
        version = body.get("version", STORE_WIRE_VERSION)
        if version != STORE_WIRE_VERSION:
            raise WireFormatError(
                f"store wire version {version!r} is not supported"
                f" (this server speaks {STORE_WIRE_VERSION})")
        return body

    def _kind(self) -> str:
        kind = self.segments[2]
        if kind not in _KINDS:
            raise WireFormatError(
                f"entry kind must be one of {', '.join(_KINDS)}, got {kind!r}")
        return kind

    # -------------------------------------------------------------- #
    # endpoints
    # -------------------------------------------------------------- #
    def _healthz(self) -> int:
        app = self.server.app
        return self.send_json(200, {
            "status": "ok",
            "role": "leader",
            "log_id": app.log.log_id,
            "last_offset": app.log.last_offset,
        })

    def _stats(self) -> int:
        app = self.server.app
        return self.send_json(200, {
            "role": "leader",
            "root": str(app.store.root),
            "log_id": app.log.log_id,
            "first_offset": app.log.first_offset,
            "last_offset": app.log.last_offset,
            "counters": app.store.counters(),
        })

    def _log(self) -> int:
        log = self.server.app.log
        query = self.query
        try:
            start = int(query.get("from", ["1"])[0])
            limit = min(MAX_LOG_BATCH,
                        int(query.get("max", [str(MAX_LOG_BATCH)])[0]))
        except ValueError:
            return self.error(400, "from/max must be integers")
        if start < 1 or limit < 1:
            return self.error(400, "from and max must be positive")
        base = {
            "log_id": log.log_id,
            "first_offset": log.first_offset,
            "last_offset": log.last_offset,
        }
        # A follower ahead of this log (e.g. the leader was rebuilt and its
        # lineage changed) or behind its retained window cannot tail — it
        # must resync from the full listings instead.
        if start > log.last_offset + 1:
            return self.send_json(200, dict(base, resync=True, records=[]))
        try:
            records = log.read(start, limit)
        except ClusterError:
            return self.send_json(200, dict(base, resync=True, records=[]))
        return self.send_json(200, dict(base, resync=False, records=records))

    def _keys(self) -> int:
        kind = self._kind()
        return self.send_json(200, {
            "kind": kind, "keys": _list_keys(self.server.app.store, kind)})

    def _entry_get(self) -> int:
        kind, key = self._kind(), self.segments[3]
        try:
            payload = self.server.app.store.entry_payload(kind, key)
        except SummaryStoreError as error:
            return self.error(404, str(error), kind=kind, key=key)
        return self.send_json(200, {"kind": kind, "key": key,
                                    "payload": payload})

    def _entry_put(self) -> int:
        kind, key = self._kind(), self.segments[3]
        app = self.server.app
        payload = self._read_body().get("payload")
        self.error_fields.update(kind=kind, key=key)
        with trace_span("store.replicate", op="put", kind=kind):
            app.store.apply_entry(kind, key, payload)
        # apply_entry journals under the store lock, so by the time it
        # returns the record's offset is <= log.last_offset; acknowledging
        # the current tail is always safe (followers catch up at least
        # that far before a read-your-writes client proceeds).
        return self.send_json(200, {"kind": kind, "key": key,
                                    "offset": app.log.last_offset})

    def _entry_delete(self) -> int:
        kind, key = self._kind(), self.segments[3]
        app = self.server.app
        deleted = app.store.delete_entry(kind, key)
        return self.send_json(200, {"kind": kind, "key": key,
                                    "deleted": deleted,
                                    "offset": app.log.last_offset})

    def _compact(self) -> int:
        app = self.server.app
        body = self._read_body() if self.headers.get("Content-Length") else {}
        kwargs: Dict[str, object] = {}
        for knob in ("max_store_bytes", "max_entries", "ttl_seconds"):
            if knob in body:
                kwargs[knob] = body[knob]
        report = app.store.compact(**kwargs)
        return self.send_json(200, {"report": report,
                                    "offset": app.log.last_offset})

    def _pin(self) -> int:
        store = self.server.app.store
        op, fingerprint = self.segments[1:]
        if op == "pin":
            store.pin(fingerprint)
        else:
            store.unpin(fingerprint)
        return self.send_json(200, {
            "fingerprint": fingerprint,
            "pins": store.pin_count(fingerprint),
        })

    routes = {
        ("GET", "/healthz"): ("healthz", _healthz),
        ("GET", "/v1/stats"): ("stats", _stats),
        ("GET", "/v1/log"): ("log", _log),
        ("GET", "/v1/keys/*"): ("keys", _keys),
        ("GET", "/v1/entry/*/*"): ("entry_get", _entry_get),
        ("PUT", "/v1/entry/*/*"): ("entry_put", _entry_put),
        ("DELETE", "/v1/entry/*/*"): ("entry_delete", _entry_delete),
        ("POST", "/v1/compact"): ("compact", _compact),
        ("POST", "/v1/pin/*"): ("pin", _pin),
        ("POST", "/v1/unpin/*"): ("unpin", _pin),
    }
