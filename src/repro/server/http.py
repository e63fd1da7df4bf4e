"""The HTTP serving front-end: a network face for :class:`RegenerationService`.

``RegenerationServer`` wraps a running service in a threaded stdlib HTTP
server (one thread per connection, no third-party dependencies) so the
paper's regenerate-on-demand loop works across a socket:

* ``POST /v1/summarize`` — submit a workload (the wire form of
  :mod:`repro.server.wire`); warm fingerprints resolve without touching the
  LP solver, cold ones go through the service's weighted-fair admission
  queue under the request's ``tenant`` tag.  Admission rejection maps to
  **429**, a draining/closed service to **503**, and a cold request against
  a ``require_warm`` server to **409** — the HTTP spelling of the CLI's
  ``--require-warm`` exit 3;
* ``POST /v1/resummarize`` — incremental re-summarization of a drifted
  workload against a warm base epoch (``base_fingerprint`` + the wire
  workload): unchanged constraint-graph components reuse their cached
  solutions verbatim and only the delta is solved before stitching.  An
  unknown base fingerprint answers **404** (resummarize never cold-builds
  the base) and a ``require_warm`` server answers **409** for a cold
  *drifted* epoch — the same contracts as ``/v1/stream`` and
  ``/v1/summarize``;
* ``GET /v1/stream/<fingerprint>/<relation>`` — the regenerated relation as
  chunked NDJSON, one JSON object per tuple, encoded batch-at-a-time
  straight from the relation summary's runs
  (:func:`repro.server.wire.ndjson_encoder`) so the tuples are never
  materialised on either side of the socket.  ``?shard=i/n`` hands parallel
  clients disjoint contiguous row ranges whose concatenation is
  byte-identical to the whole relation;
* ``GET /v1/stats`` — the service's :class:`ServiceStats` as JSON;
* ``GET /metrics`` — the service registry in Prometheus text exposition
  format;
* ``GET /healthz`` — liveness (503 while draining).

Requests may carry an ``X-Repro-Trace-Id`` header: the server then records
its ``server.request`` span — and every service/store/solver span nested
under it — in that trace, so one trace id follows a request across the
socket.  The response echoes the header either way.

Shutdown is graceful: :meth:`RegenerationServer.shutdown` refuses new work
with 503, closes the listener and waits for in-flight requests — streams
included — to drain; stream cursors release their store pins on the way out
(abrupt client disconnects release them immediately, and the service's
idle-cursor reaper backstops readers that die without closing the socket).

The HTTP mechanics — listener lifecycle, routing, body limits, reply
writers, error → status mapping — are :mod:`repro.server.kernel`'s; this
module is the route table, the endpoints and what only this server does.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import asdict
from typing import Dict, Iterable, List, Optional, Tuple

from repro.constraints.workload import ConstraintSet
from repro.errors import (
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    SummaryError,
)
from repro.obs.logging import get_logger
from repro.obs.trace import Span, current_span, get_tracer
from repro.server.kernel import Endpoint, HTTPKernel, Request
from repro.server.wire import (
    WireFormatError,
    constraint_set_from_wire,
    ndjson_encoder,
    parse_shard,
    shard_bounds,
)
from repro.service.service import DEFAULT_TENANT, RegenerationService

logger = get_logger("server")

#: Request/response header carrying the trace id across the socket.
TRACE_HEADER = "X-Repro-Trace-Id"

#: Optional request header naming the client's span the server span nests under.
PARENT_SPAN_HEADER = "X-Repro-Parent-Span"

#: NDJSON content type of the streaming endpoint.
NDJSON_CONTENT_TYPE = "application/x-ndjson"

#: Most tuples encoded into one stream chunk whatever ``?batch_size=`` asks
#: for: server memory per stream stays O(this), not O(relation).
MAX_STREAM_BATCH_ROWS = 1 << 16


class RegenerationServer(HTTPKernel):
    """Threaded HTTP front-end over one :class:`RegenerationService`.

    Parameters
    ----------
    service:
        The (already constructed) serving back-end.  Its metrics registry
        gains the ``repro_server_*`` series, so one ``/metrics`` scrape
        covers server, service, store and solver.  The server's limits are
        its :class:`~repro.api.RegenConfig`'s: ``max_connections`` caps
        concurrently *in-flight* requests (streams count for their whole
        duration; excess requests get 503 + ``Retry-After`` rather than
        queueing behind a stuck stream), ``request_timeout`` is the socket
        timeout per connection and the default wait bound of blocking
        ``summarize`` requests (a slower build answers 504; the build keeps
        running and a retry picks it up via single-flight dedup),
        ``max_request_bytes`` caps the request body (oversized submits
        answer **413**) and ``batch_size`` is the NDJSON chunk size when a
        stream passes no ``?batch_size=``.
    host / port:
        Listen address; ``port=0`` binds an ephemeral port (the bound
        address is available as :attr:`host` / :attr:`port` after
        construction — the socket is bound in ``__init__``).
    require_warm:
        Refuse cold workloads with 409 instead of running the pipeline —
        the HTTP spelling of ``serve --require-warm``.
    """

    def __init__(self, service: RegenerationService,
                 host: str = "127.0.0.1", port: int = 0, *,
                 require_warm: bool = False) -> None:
        config = service.config
        self.service = service
        self.registry = registry = service.registry
        self.require_warm = require_warm
        self.request_timeout = self.socket_timeout = config.request_timeout
        self.max_connections = config.max_connections
        self.default_batch_size = config.batch_size
        self.max_request_bytes = config.max_request_bytes
        self._state = threading.Condition()
        self._active = 0
        self._draining = False
        self._g_active = registry.gauge(
            "repro_server_active_requests",
            "HTTP requests currently in flight (streams for their whole"
            " duration)")
        self._h_request = registry.histogram(
            "repro_server_request_seconds",
            "HTTP request latency, first byte in to last byte out",
            labelnames=("endpoint",))
        self._rows_streamed = registry.counter(
            "repro_server_rows_streamed_total",
            "Tuples written to NDJSON stream responses")
        self._bytes_sent = registry.counter(
            "repro_server_bytes_sent_total",
            "Response body bytes written (JSON and NDJSON)")
        self._h_stream_encode = registry.histogram(
            "repro_server_stream_encode_seconds",
            "Time one NDJSON stream spent producing its chunks (generation"
            " + wire encoding), socket writes excluded")
        super().__init__(
            _Handler, host, port,
            registry.counter(
                "repro_server_requests_total",
                "HTTP requests served, by endpoint and status code",
                labelnames=("endpoint", "code")))
        logger.info("http server bound on %s:%d (require_warm=%s)",
                    self.host, self.port, require_warm)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def draining(self) -> bool:
        """``True`` once shutdown started (new work is refused with 503)."""
        with self._state:
            return self._draining

    def active_requests(self) -> int:
        """Requests currently in flight."""
        with self._state:
            return self._active

    def shutdown(self, drain_timeout: Optional[float] = None) -> None:
        """Graceful stop: refuse new work, close, drain in-flight requests.

        In-flight streams run to completion (bounded by ``drain_timeout``,
        defaulting to ``request_timeout``); their cursors release the store
        pins on the way out.  Idempotent and callable from any thread except
        one inside :meth:`serve_forever`.
        """
        with self._state:
            self._draining = True
        if not super().shutdown():
            return
        limit = self.request_timeout if drain_timeout is None else drain_timeout
        with self._state:
            drained = self._state.wait_for(lambda: self._active == 0, limit)
        if not drained:  # pragma: no cover - only on pathological streams
            logger.warning("shutdown proceeded with %d requests still in"
                           " flight after %.1fs drain", self.active_requests(),
                           limit)
        logger.info("http server on %s:%d closed", self.host, self.port)

    # ------------------------------------------------------------------ #
    # request accounting (called from handler threads)
    # ------------------------------------------------------------------ #
    def _begin_request(self) -> str:
        """Admit one request: ``"ok"``, ``"draining"`` or ``"busy"``."""
        with self._state:
            if self._draining:
                return "draining"
            if self._active >= self.max_connections:
                return "busy"
            self._active += 1
        self._g_active.inc()
        return "ok"

    def _end_request(self) -> None:
        with self._state:
            self._active -= 1
            self._state.notify_all()
        self._g_active.dec()

    def observe(self, endpoint: str, code: int, seconds: float) -> None:
        super().observe(endpoint, code, seconds)
        self._h_request.labels(endpoint=endpoint).observe(seconds)


class _Handler(Request):
    """The serving front-end's endpoints, and what wraps every one of them:
    admission + drain accounting, the ``server.request`` span, byte counts
    and ``Retry-After``."""

    server_version = "repro-serve"

    def invoke(self, endpoint: str, function: Endpoint) -> int:
        app: RegenerationServer = self.server.app
        # `/healthz` stays ungated so load balancers see "draining" rather
        # than a connection refusal mid-shutdown.
        if endpoint == "healthz":
            return self._traced(endpoint, function)
        admission = app._begin_request()
        if admission != "ok":
            return self.error(
                503, "server is draining" if admission == "draining"
                else f"{app.max_connections} requests already in flight",
                status=admission)
        try:
            return self._traced(endpoint, function)
        finally:
            app._end_request()

    def _traced(self, endpoint: str, function: Endpoint) -> int:
        """Run one admitted request inside a ``server.request`` span.

        A client-supplied ``X-Repro-Trace-Id`` forces recording into that
        trace (the client already made the sampling decision); otherwise the
        process tracer's own sampling applies.  The span is *current* while
        the endpoint runs, so service/store/solver spans nest under it and
        the whole tree shares the client's trace id, which the reply echoes.
        """
        tracer = get_tracer()
        trace_id = self.headers.get(TRACE_HEADER)
        if trace_id:
            span = Span(tracer, "server.request", trace_id,
                        self.headers.get(PARENT_SPAN_HEADER) or None,
                        {"endpoint": endpoint, "method": self.command})
        else:
            span = tracer.start_span("server.request", endpoint=endpoint,
                                     method=self.command)
            trace_id = getattr(span, "trace_id", None)
        if trace_id:
            self.reply_headers.append((TRACE_HEADER, trace_id))
        with span:
            code = super().invoke(endpoint, function)
            span.set_attribute("status", code)
        return code

    def send(self, code: int, headers: Iterable[Tuple[str, str]],
             body: bytes = b"") -> int:
        super().send(code, headers, body)
        self.server.app._bytes_sent.inc(len(body))
        return code

    def error(self, code: int, message: str, **fields: object) -> int:
        retry = (("Retry-After", "1"),) if code in (429, 503) else ()
        return self.send_json(code, {"error": message, **fields}, retry)

    # -------------------------------------------------------------- #
    # endpoints
    # -------------------------------------------------------------- #
    def _healthz(self) -> int:
        app = self.server.app
        draining = app.draining
        return self.send_json(503 if draining else 200, {
            "status": "draining" if draining else "ok",
            "active_requests": app.active_requests(),
            "require_warm": app.require_warm,
        })

    def _stats(self) -> int:
        stats = self.server.app.service.service_stats()
        return self.send_json(200, {
            "counters": stats.counters,
            "queue_depth": stats.counters["queue_depth"],
            "tenants": [asdict(row) for row in stats.tenants],
        })

    def _submission(self, body: Dict[str, object]) -> Tuple[
            ConstraintSet, Optional[List[str]], str, float, str]:
        """The fields ``/v1/summarize`` and ``/v1/resummarize`` share —
        ``(workload, relations, tenant, timeout, fingerprint)`` — or a 400.
        Every later error body names the fingerprint."""
        workload = constraint_set_from_wire(body.get("workload"))
        relations = body.get("relations")
        if relations is not None and not isinstance(relations, list):
            raise WireFormatError("'relations' must be a list or null")
        tenant = str(body.get("tenant", DEFAULT_TENANT))
        try:
            timeout = float(body.get("timeout",
                                     self.server.app.request_timeout))
        except (TypeError, ValueError):
            timeout = math.nan
        if not math.isfinite(timeout):
            raise WireFormatError("'timeout' must be a finite number of"
                                  " seconds")
        fingerprint = self.server.app.service.fingerprint(workload, relations)
        self.error_fields["fingerprint"] = fingerprint
        return workload, relations, tenant, timeout, fingerprint

    def _build_failed(self, error: ReproError, timeout: float) -> int:
        """An admitted build gave no summary: 504 on the wait bound, else
        the pipeline's own error as a 500."""
        if isinstance(error, ServiceError):
            return self.error(504, f"build did not finish within {timeout}s:"
                                   f" {error}", **self.error_fields)
        return self.error(500, f"{type(error).__name__}: {error}",
                          **self.error_fields)

    def _summarize(self) -> int:
        app = self.server.app
        service = app.service
        body = self.read_json()
        workload, relations, tenant, timeout, fingerprint = \
            self._submission(body)
        wait = bool(body.get("wait", True))
        if app.require_warm and not service.store.has_summary(fingerprint):
            return self.error(
                409, "fingerprint is not in the store and this server refuses"
                     " to run the pipeline (require_warm)",
                fingerprint=fingerprint)
        ticket = service.submit(workload, relations, tenant=tenant)
        payload: Dict[str, object] = {
            "fingerprint": ticket.fingerprint,
            "warm": ticket.warm,
            "tenant": ticket.tenant,
        }
        if not wait:
            payload["status"] = "done" if ticket.done() else "building"
            return self.send_json(202, payload)
        try:
            summary = ticket.result(timeout)
        except ReproError as error:
            return self._build_failed(error, timeout)
        payload.update({
            "status": "done",
            "total_rows": int(summary.total_rows()),
            "summary_bytes": int(summary.nbytes()),
            "relations": {name: int(rel.total_rows())
                          for name, rel in sorted(summary.relations.items())},
        })
        return self.send_json(200, payload)

    def _resummarize(self) -> int:
        app = self.server.app
        service = app.service
        body = self.read_json()
        base_fingerprint = body.get("base_fingerprint")
        if not isinstance(base_fingerprint, str) or not base_fingerprint:
            raise WireFormatError(
                "'base_fingerprint' must be a non-empty string")
        workload, relations, tenant, timeout, fingerprint = \
            self._submission(body)
        if not service.store.has_summary(base_fingerprint):
            # Resummarize never cold-builds the base epoch: an unknown base
            # is the same 404 an unknown stream fingerprint answers.
            return self.error(404, "base fingerprint is not in the store;"
                                   " summarize the base workload first",
                              base_fingerprint=base_fingerprint)
        if app.require_warm and not service.store.has_summary(fingerprint):
            return self.error(
                409, "drifted fingerprint is not in the store and this server"
                     " refuses to run the pipeline (require_warm)",
                fingerprint=fingerprint, base_fingerprint=base_fingerprint)
        try:
            report = service.resummarize(base_fingerprint, workload,
                                         relations, tenant=tenant,
                                         timeout=timeout)
        except (ServiceOverloadedError, ServiceClosedError):
            raise  # the kernel's 429 / 503
        except ReproError as error:
            return self._build_failed(error, timeout)
        summary = report.summary
        payload: Dict[str, object] = {
            "status": "done",
            "fingerprint": report.fingerprint,
            "parent_fingerprint": report.parent_fingerprint,
            "warm": report.warm,
            "tenant": tenant,
            "components_total": report.total_components,
            "components_reused": len(report.reused_components),
            "components_solved": len(report.solved_components),
            "components_retired": len(report.retired_components),
            "content_digest": summary.content_digest(),
            "total_rows": int(summary.total_rows()),
            "summary_bytes": int(summary.nbytes()),
            "relations": {name: int(rel.total_rows())
                          for name, rel in sorted(summary.relations.items())},
        }
        return self.send_json(200, payload)

    def _stream(self) -> int:
        app = self.server.app
        service = app.service
        fingerprint, relation = self.segments[2:]
        query = self.query
        try:
            shard_index, shard_count = parse_shard(
                query.get("shard", ["1/1"])[0])
            batch_size = int(query.get("batch_size",
                                       [app.default_batch_size])[0])
        except ValueError as error:
            raise WireFormatError(str(error)) from None
        if batch_size < 1:
            raise WireFormatError("batch_size must be at least 1")
        # Batching is not part of the contract (the body is the same bytes
        # at any batch size), so an oversized request is served, in capped
        # chunks, rather than refused.
        batch_size = min(batch_size, MAX_STREAM_BATCH_ROWS)
        tenant = query.get("tenant", [DEFAULT_TENANT])[0]
        try:
            total_rows = service.total_rows(fingerprint, relation)
            start_row, stop_row = shard_bounds(total_rows, shard_index,
                                               shard_count)
            cursor = service.stream_encoded(
                fingerprint, relation, ndjson_encoder, batch_size=batch_size,
                start_row=start_row, stop_row=stop_row, tenant=tenant)
        except (SummaryError, ServiceError) as error:
            # Unknown fingerprint (store-only resolution) or unknown relation.
            return self.error(404, str(error), fingerprint=fingerprint,
                              relation=relation)
        shard_rows = max(0, (stop_row or 0) - start_row + 1)
        rows = sent = 0
        encode_s = write_s = 0.0
        try:
            self.send(200, (
                ("Content-Type", NDJSON_CONTENT_TYPE),
                ("Transfer-Encoding", "chunked"),
                ("X-Repro-Total-Rows", str(total_rows)),
                ("X-Repro-Shard-Rows", str(shard_rows)),
                ("X-Repro-Shard", f"{shard_index}/{shard_count}")))
            mark = time.perf_counter()
            for payload in cursor:
                encoded = time.perf_counter()
                self.write_chunk(payload)
                sent += len(payload)
                rows += min(batch_size, shard_rows - rows)
                encode_s += encoded - mark
                mark = time.perf_counter()
                write_s += mark - encoded
            self.write_chunk(b"")
            return 200
        finally:
            # Exhausted cursors already released their pin; this covers the
            # disconnect/error paths (and is a no-op otherwise).  What was
            # written before a disconnect was still written: count it.
            cursor.close()
            app._rows_streamed.inc(rows)
            app._bytes_sent.inc(sent)
            app._h_stream_encode.observe(encode_s)
            span = current_span()
            if span is not None:  # the request span, when it is recorded
                span.set_attribute("rows", rows)
                span.set_attribute("bytes", sent)
                span.set_attribute("encode_s", round(encode_s, 6))
                span.set_attribute("write_s", round(write_s, 6))

    routes = {
        ("GET", "/healthz"): ("healthz", _healthz),
        ("GET", "/v1/stats"): ("stats", _stats),
        ("POST", "/v1/summarize"): ("summarize", _summarize),
        ("POST", "/v1/resummarize"): ("resummarize", _resummarize),
        ("GET", "/v1/stream/*/*"): ("stream", _stream),
    }
