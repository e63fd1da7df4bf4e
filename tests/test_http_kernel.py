"""The HTTP kernel's contract, checked on the server mounted on it.

:class:`repro.server.RegenerationServer` is a route table on
:mod:`repro.server.kernel`; everything here is behaviour the kernel owns
rather than an endpoint: the unknown-route 404, the body cap and body-shape
statuses, ``/metrics``, keep-alive ordering, the
``requests_total{endpoint,code}`` labels, one socket write per reply and the
last-resort JSON 500.  Endpoint behaviour stays in ``tests/test_server.py``.
"""

from __future__ import annotations

import http.client
import json
import socket
import socketserver
from types import SimpleNamespace
from unittest import mock

import pytest

from repro.api import RegenConfig
from repro.server import RegenerationServer
from repro.service.service import RegenerationService

from tests.test_server import make_toy_schema, wait_until

#: Request-body cap of the servers under test; small so 413 is cheap to hit.
BODY_CAP = 512


@pytest.fixture(params=["regeneration"])
def mounted(request, tmp_path):
    """A started server (the param names it in test ids), plus what a kernel
    test needs to know about it: its counter family, a route that reads a
    JSON body, and a callee one of its GET endpoints depends on."""
    service = RegenerationService(
        make_toy_schema(), store=str(tmp_path / "store"),
        config=RegenConfig(max_request_bytes=BODY_CAP))
    server = RegenerationServer(service)
    kind = SimpleNamespace(
        server=server, counter="repro_server_requests_total",
        body_route=("POST", "/v1/summarize", "summarize"),
        stats_callee=(service, "service_stats"))
    with server:
        yield kind
    service.close()


def exchange(server, request: bytes) -> SimpleNamespace:
    """Send raw request bytes on a fresh connection, parse the one reply."""
    with socket.create_connection((server.host, server.port),
                                  timeout=10) as sock:
        sock.sendall(request)
        response = http.client.HTTPResponse(sock)
        response.begin()
        return SimpleNamespace(status=response.status,
                               headers=dict(response.getheaders()),
                               body=response.read())


def call(server, method: str, path: str, body: bytes = None,
         headers: str = "") -> SimpleNamespace:
    head = f"{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
    if body is not None:
        head += f"Content-Length: {len(body)}\r\n"
    return exchange(server, (head + headers + "\r\n").encode("ascii")
                    + (body or b""))


def count(kind: SimpleNamespace, endpoint: str, code: int) -> float:
    """The ``requests_total`` sample for one label set, via ``/metrics``."""
    wanted = f'{kind.counter}{{endpoint="{endpoint}",code="{code}"}} '
    for line in call(kind.server, "GET", "/metrics").body.decode().splitlines():
        if line.startswith(wanted):
            return float(line[len(wanted):])
    return 0.0


def wait_for_count(kind: SimpleNamespace, endpoint: str, code: int,
                   value: float) -> None:
    # The counter moves just after the reply is written.
    wait_until(lambda: count(kind, endpoint, code) == value, timeout=5.0,
               message=f'{kind.counter}{{{endpoint},{code}}} == {value}')


class TestRouting:
    def test_unknown_route_is_json_404(self, mounted):
        response = call(mounted.server, "GET", "/v2/nope")
        assert response.status == 404
        assert response.headers["Content-Type"] == "application/json"
        assert json.loads(response.body)["error"] == "no route for GET /v2/nope"
        wait_for_count(mounted, "unknown", 404, 1)

    @pytest.mark.parametrize("method", ["GET", "POST", "PUT", "DELETE"])
    def test_unrouted_method_is_json_404_not_stdlib_501(self, mounted, method):
        # /v1/stats is routed for GET only, /nowhere for nothing.
        path = "/nowhere" if method == "GET" else "/v1/stats"
        response = call(mounted.server, method, path, b"{}")
        assert response.status == 404
        assert json.loads(response.body)["error"] == \
            f"no route for {method} {path}"
        wait_for_count(mounted, "unknown", 404, 1)

    def test_metrics_is_prometheus_text(self, mounted):
        response = call(mounted.server, "GET", "/metrics")
        assert response.status == 200
        assert response.headers["Content-Type"] == "text/plain; version=0.0.4"
        assert int(response.headers["Content-Length"]) == len(response.body)
        assert f"# TYPE {mounted.counter} counter" in response.body.decode()

    def test_requests_are_counted_by_endpoint_and_code(self, mounted):
        for _ in range(2):
            assert call(mounted.server, "GET", "/healthz").status == 200
        wait_for_count(mounted, "healthz", 200, 2)
        # ...and so are the scrapes that just read it
        wait_until(lambda: count(mounted, "metrics", 200) >= 1, timeout=5.0,
                   message="the /metrics scrapes to be counted")


class TestRequestBody:
    def test_oversized_body_413(self, mounted):
        method, path, endpoint = mounted.body_route
        response = call(mounted.server, method, path,
                        json.dumps({"pad": "x" * 2 * BODY_CAP}).encode())
        assert response.status == 413
        assert f"{BODY_CAP}-byte limit" in json.loads(response.body)["error"]
        wait_for_count(mounted, endpoint, 413, 1)

    @pytest.mark.parametrize("body", [b"\xff\xfenot json", b"[1, 2]", b"17"])
    def test_non_json_object_body_400(self, mounted, body):
        method, path, endpoint = mounted.body_route
        response = call(mounted.server, method, path, body)
        assert response.status == 400
        assert "error" in json.loads(response.body)
        wait_for_count(mounted, endpoint, 400, 1)

    @pytest.mark.parametrize("header", ["", "Content-Length: -5\r\n",
                                        "Content-Length: many\r\n"])
    def test_missing_or_bad_content_length_400(self, mounted, header):
        method, path, _ = mounted.body_route
        response = call(mounted.server, method, path, headers=header)
        assert response.status == 400
        assert "Content-Length" in json.loads(response.body)["error"]


class TestConnections:
    def test_keep_alive_requests_answered_in_order(self, mounted):
        method, path, _ = mounted.body_route
        connection = http.client.HTTPConnection(
            mounted.server.host, mounted.server.port, timeout=10)
        try:
            connection.request("GET", "/healthz")
            first = connection.getresponse()
            assert (first.status, json.loads(first.read())["status"]) == \
                (200, "ok")
            sock = connection.sock
            # A well-formed JSON body neither server accepts: read in full,
            # answered 400, and the connection stays usable.
            connection.request(method, path, body=b'{"payload": 17}')
            second = connection.getresponse()
            assert second.status == 400 and second.read()
            connection.request("GET", "/v1/stats")
            third = connection.getresponse()
            assert third.status == 200 and "counters" in json.loads(third.read())
            assert connection.sock is sock  # one connection throughout
        finally:
            connection.close()

    def test_each_reply_is_one_socket_write(self, mounted, monkeypatch):
        """Head and body leave together: two writes on an unbuffered socket
        are two segments, and Nagle + delayed ACK then stall every
        keep-alive reply by ~40 ms."""
        writes = []

        class RecordingWriter:
            def __init__(self, inner):
                self._inner = inner

            def write(self, data):
                writes.append(bytes(data))
                return self._inner.write(data)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        setup = socketserver.StreamRequestHandler.setup

        def recording_setup(handler):
            setup(handler)
            handler.wfile = RecordingWriter(handler.wfile)

        monkeypatch.setattr(socketserver.StreamRequestHandler, "setup",
                            recording_setup)
        method, path, _ = mounted.body_route
        replies = [("GET", "/healthz", None), ("GET", "/v1/stats", None),
                   ("GET", "/metrics", None), ("GET", "/v2/nope", None),
                   (method, path, b"not json")]
        for reply_method, reply_path, body in replies:
            del writes[:]
            response = call(mounted.server, reply_method, reply_path, body)
            assert len(writes) == 1, (reply_path, [w[:40] for w in writes])
            assert writes[0].startswith(b"HTTP/1.1 %d " % response.status)
            assert writes[0].endswith(response.body) and response.body


class TestLastResort:
    def test_unexpected_error_is_json_500_then_close(self, mounted):
        target, attribute = mounted.stats_callee
        server = mounted.server
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as sock:
            with mock.patch.object(target, attribute,
                                   side_effect=RuntimeError("boom")):
                # keep-alive request: closing is the server's decision
                sock.sendall(b"GET /v1/stats HTTP/1.1\r\nHost: test\r\n\r\n")
                response = http.client.HTTPResponse(sock)
                response.begin()
                body = json.loads(response.read())
            assert response.status == 500
            assert body["error"] == "internal error"  # no internals leaked
            assert response.getheader("Connection") == "close"
            assert sock.recv(1) == b""  # EOF: the server hung up
        wait_for_count(mounted, "stats", 500, 1)
        # ...and goes on serving everyone else
        assert call(server, "GET", "/v1/stats").status == 200
