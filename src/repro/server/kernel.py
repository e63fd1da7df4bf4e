"""The HTTP request kernel the regeneration server is mounted on.

:class:`~repro.server.http.RegenerationServer` is a route table plus
endpoint functions; what an HTTP server does regardless of *what* it serves
is here:

* :class:`HTTPKernel` — the bound listener, its ``url`` / ``serve_forever``
  / ``start`` / ``shutdown`` / context-manager lifecycle and the
  ``requests_total{endpoint,code}`` observation;
* :class:`Request` — the one ``BaseHTTPRequestHandler``: method entry
  points, URL split, route matching, the bounded JSON body read, the reply
  writers, ``GET /metrics``, the unknown-route 404 and the context-free
  exception → status mapping (413, 400, 429, 503, 499 for a client that
  went away, a last-resort 500; ``docs/SERVING.md`` has the table).
  Endpoints answer only the statuses that depend on what they serve.

Every non-streaming reply leaves as a single write of head + body, and every
stream chunk as a single write of length line + payload + CRLF: on an
unbuffered socket two writes are two segments, and Nagle + delayed ACK then
stall each keep-alive reply by ~40 ms.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Iterable, List, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from repro.errors import ReproError, ServiceClosedError, ServiceOverloadedError
from repro.obs.logging import get_logger
from repro.obs.metrics import Counter
from repro.server.wire import RequestTooLargeError, WireFormatError

logger = get_logger("server.kernel")

#: Default cap on request bodies (64 MiB — a wire workload is a few KB;
#: anything near this bound is a client bug).  Override per server with the
#: ``max_request_bytes`` knob; oversized bodies answer **413**.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: An endpoint function: takes the request, returns the status it sent.
Endpoint = Callable[["Request"], int]


class _HTTPServer(ThreadingHTTPServer):
    """One thread per connection; never blocks process exit on stragglers."""

    daemon_threads = True
    block_on_close = False
    allow_reuse_address = True
    app: "HTTPKernel"


class HTTPKernel:
    """A bound listener serving one :class:`Request` subclass's routes.

    Subclasses set :attr:`registry` (scraped by ``GET /metrics``) and
    :attr:`max_request_bytes`, then call ``__init__``, which binds the
    socket (``port=0`` is ephemeral; see :attr:`host` / :attr:`port`) and
    takes the server's own ``{endpoint,code}`` counter family.
    """

    #: Per-connection socket timeout, seconds (``RegenerationServer`` sets
    #: its ``request_timeout`` knob instead).
    socket_timeout = 30.0

    def __init__(self, handler: "type[Request]", host: str, port: int,
                 requests_total: Counter) -> None:
        self._requests_total = requests_total
        self._serve_thread: Optional[threading.Thread] = None
        self._shutdown_lock = threading.Lock()
        self._shut_down = False
        self._httpd = _HTTPServer((host, port), handler)
        self._httpd.app = self
        self.host, self.port = self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        """Base URL of the bound listener."""
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` is called (blocking)."""
        self._httpd.serve_forever(poll_interval=0.1)

    def start(self):
        """Serve on a background thread; returns ``self``."""
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self.serve_forever, daemon=True,
                name=f"{self._httpd.RequestHandlerClass.server_version}-http")
            self._serve_thread.start()
        return self

    def shutdown(self) -> bool:
        """Stop accepting, close the listener, join the serve thread.

        Idempotent: returns ``False`` when an earlier call already did (so a
        subclass runs its own teardown once).  Callable from any thread
        except one inside :meth:`serve_forever`.
        """
        with self._shutdown_lock:
            if self._shut_down:
                return False
            self._shut_down = True
        self._httpd.shutdown()  # returns when the accept loop has exited
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        return True

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def metrics_text(self) -> str:
        """The ``GET /metrics`` body: the registry in Prometheus text form."""
        return self.registry.to_prometheus()

    def observe(self, endpoint: str, code: int, seconds: float) -> None:
        """Count one answered request under ``{endpoint, code}``."""
        self._requests_total.labels(endpoint=endpoint, code=str(code)).inc()


class Request(BaseHTTPRequestHandler):
    """One connection's requests, routed onto the owning server.

    Subclasses provide :attr:`routes` and the endpoint functions, and may
    wrap :meth:`invoke` (admission, tracing) or extend :meth:`send` /
    :meth:`send_json` (accounting, envelopes).
    """

    protocol_version = "HTTP/1.1"

    #: The route table, ``(method, path pattern) → (endpoint label,
    #: function)``: ``*`` matches any one path segment, the label is the
    #: ``requests_total`` ``endpoint``.  ``GET /metrics`` is built in.
    routes: Dict[Tuple[str, str], Tuple[str, Endpoint]] = {}

    #: The context-free exception → status mapping; the first match wins.
    statuses: Tuple[Tuple[type, int], ...] = (
        (RequestTooLargeError, 413), (WireFormatError, 400),
        (ServiceOverloadedError, 429), (ServiceClosedError, 503))

    def setup(self) -> None:
        self.timeout = self.server.app.socket_timeout
        super().setup()

    def log_message(self, format: str, *args: object) -> None:
        logger.debug("%s %s", self.address_string(), format % args)

    # -------------------------------------------------------------- #
    # routing
    # -------------------------------------------------------------- #
    def _serve(self) -> None:
        parsed = urlsplit(self.path)
        #: Unquoted path segments and the parsed query of this request.
        self.segments = [unquote(s) for s in parsed.path.split("/") if s]
        self.query: Dict[str, List[str]] = parse_qs(parsed.query)
        #: Headers added to every reply to this request (trace echo).
        self.reply_headers: List[Tuple[str, str]] = []
        #: Fields added to every error body the kernel maps for this request.
        self.error_fields: Dict[str, object] = {}
        self._replied = False
        endpoint, function = self._match()
        started = time.perf_counter()
        try:
            code = self.invoke(endpoint, function)
        except (BrokenPipeError, ConnectionResetError, socket.timeout):
            # The client went away mid-response; nothing left to send.
            code = 499
            self.close_connection = True
            logger.info("client disconnected during %s", endpoint)
        except Exception as error:  # last resort: answer if still possible
            code = 500
            self.close_connection = True
            logger.error("unhandled error serving %s: %s", endpoint, error,
                         exc_info=True)
            if not self._replied:
                try:
                    self.send_json(500, {"error": "internal error"},
                                   extra=(("Connection", "close"),))
                except OSError:
                    pass  # the client is gone too; closing is all that is left
        self.server.app.observe(endpoint, code, time.perf_counter() - started)

    do_GET = do_POST = do_PUT = do_DELETE = _serve

    def _match(self) -> Tuple[str, Endpoint]:
        if (self.command, self.segments) == ("GET", ["metrics"]):
            return "metrics", Request._metrics
        for (method, pattern), target in self.routes.items():
            wanted = pattern.strip("/").split("/")
            if (method == self.command and len(wanted) == len(self.segments)
                    and all(w in ("*", s)
                            for w, s in zip(wanted, self.segments))):
                return target
        return "unknown", Request._unknown

    def invoke(self, endpoint: str, function: Endpoint) -> int:
        """Run one endpoint function; map the context-free errors to replies.

        The one place 413 / 400 / 429 / 503 are decided.  Anything else
        propagates to the disconnect / last-resort-500 ladder in
        :meth:`_serve`.
        """
        try:
            return function(self)
        except ReproError as error:
            for kind, code in self.statuses:
                if isinstance(error, kind):
                    return self.error(code, str(error), **self.error_fields)
            raise

    # -------------------------------------------------------------- #
    # request body
    # -------------------------------------------------------------- #
    def read_json(self) -> Dict[str, object]:
        """Read one JSON-object request body, bounded by ``max_request_bytes``.

        Raises :class:`RequestTooLargeError` (→ 413) when the declared
        length exceeds the cap and :class:`WireFormatError` (→ 400) on
        everything else.  The read itself is bounded by the *declared*
        length, so a client that lies short simply fails JSON parsing — it
        can never make the server buffer more than the cap.
        """
        max_bytes = self.server.app.max_request_bytes
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise WireFormatError("a Content-Length request body is required")
        try:
            length = int(length_header)
        except ValueError:
            raise WireFormatError("bad Content-Length") from None
        if length < 0:
            raise WireFormatError("bad Content-Length")
        if length > max_bytes:
            raise RequestTooLargeError(
                f"request body of {length} bytes exceeds the"
                f" {max_bytes}-byte limit")
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise WireFormatError(f"request body is not JSON: {error}") from None
        if not isinstance(body, dict):
            raise WireFormatError("request body must be a JSON object")
        return body

    # -------------------------------------------------------------- #
    # replies
    # -------------------------------------------------------------- #
    def send(self, code: int, headers: Iterable[Tuple[str, str]],
             body: bytes = b"") -> int:
        """Status line, headers and ``body`` in one write; returns ``code``."""
        self.log_request(code)
        lines = [f"{self.protocol_version} {code} {HTTPStatus(code).phrase}",
                 f"Server: {self.version_string()}",
                 f"Date: {self.date_time_string()}"]
        lines.extend(f"{name}: {value}"
                     for name, value in (*headers, *self.reply_headers))
        self._replied = True
        self.wfile.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                         + body)
        return code

    def send_text(self, code: int, text: str, content_type: str,
                  extra: Iterable[Tuple[str, str]] = ()) -> int:
        """``text`` as the reply, under ``content_type``."""
        body = text.encode("utf-8")
        return self.send(code, (("Content-Type", content_type),
                                ("Content-Length", str(len(body))),
                                *extra), body)

    def send_json(self, code: int, payload: Dict[str, object],
                  extra: Iterable[Tuple[str, str]] = ()) -> int:
        """One JSON object (sorted keys, trailing newline) as the reply."""
        return self.send_text(code, json.dumps(payload, sort_keys=True) + "\n",
                              "application/json", extra)

    def error(self, code: int, message: str, **fields: object) -> int:
        """``{"error": message, **fields}`` as the reply."""
        return self.send_json(code, {"error": message, **fields})

    def write_chunk(self, payload: bytes) -> None:
        """One ``Transfer-Encoding: chunked`` frame in one write; an empty
        ``payload`` is the terminating frame."""
        self.wfile.write(b"%x\r\n%b\r\n" % (len(payload), payload))

    # -------------------------------------------------------------- #
    # endpoints every server has
    # -------------------------------------------------------------- #
    def _metrics(self) -> int:
        return self.send_text(200, self.server.app.metrics_text(),
                              "text/plain; version=0.0.4")

    def _unknown(self) -> int:
        return self.error(404, f"no route for {self.command}"
                               f" /{'/'.join(self.segments)}")

