"""Protocol and concurrency suite for the HTTP serving front-end.

Everything runs over a real socket against :class:`repro.server
.RegenerationServer`: warm zero-solve serving, NDJSON byte-identity with
in-process materialisation at several shard counts, the 409/503/429 status
contracts, concurrent multi-tenant admission, abrupt-disconnect pin
release, graceful-shutdown drain, ``/metrics`` scraping and cross-socket
trace propagation — plus the wire codec and the service's idle-cursor
reaper underneath it all.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import RegenConfig
from repro.constraints.cc import CardinalityConstraint
from repro.constraints.workload import ConstraintSet
from repro.errors import ConfigError, ServiceError, ServiceOverloadedError
from repro.hydra.pipeline import HydraResult
from repro.obs.trace import build_tree, get_tracer, parse_jsonl
from repro.predicates.dnf import DNFPredicate, col
from repro.predicates.interval import Interval
from repro.schema.relation import Attribute, ForeignKey, Relation
from repro.schema.schema import Schema
from repro.server import (
    TRACE_HEADER,
    RegenerationServer,
    WireFormatError,
    constraint_set_from_wire,
    constraint_set_to_wire,
    ndjson_batch,
    ndjson_encoder,
    parse_shard,
    shard_bounds,
)
from repro.server.http import MAX_STREAM_BATCH_ROWS
from repro.service.fingerprint import workload_fingerprint
from repro.service.service import RegenerationService
from repro.summary.relation_summary import DatabaseSummary, RelationSummary
from repro.tuplegen.generator import TupleGenerator


def make_toy_schema() -> Schema:
    """The paper's Figure 1 R/S/T schema (module-scoped fixtures cannot use
    the function-scoped ``toy_schema`` fixture)."""
    return Schema(
        [
            Relation(name="S", primary_key="S_pk", row_count=700,
                     attributes=[Attribute("A", Interval(0, 100)),
                                 Attribute("B", Interval(0, 50))]),
            Relation(name="T", primary_key="T_pk", row_count=1500,
                     attributes=[Attribute("C", Interval(0, 10))]),
            Relation(name="R", primary_key="R_pk", row_count=80_000,
                     foreign_keys=[ForeignKey(column="S_fk", target="S"),
                                   ForeignKey(column="T_fk", target="T")],
                     attributes=[]),
        ],
        name="toy",
    )


def toy_ccs(name: str = "toy-ccs") -> ConstraintSet:
    ccs = ConstraintSet(name=name)
    ccs.add(CardinalityConstraint("S", col("A").between(20, 60), 400))
    ccs.add(CardinalityConstraint("S", DNFPredicate.true(), 700))
    ccs.add(CardinalityConstraint("T", col("C") == 2, 900))
    ccs.add(CardinalityConstraint("T", DNFPredicate.true(), 1500))
    ccs.add(CardinalityConstraint("R", DNFPredicate.true(), 80_000))
    return ccs


# ---------------------------------------------------------------------- #
# HTTP helpers (stdlib only, like any external client)
# ---------------------------------------------------------------------- #
def http_get(server: RegenerationServer, path: str,
             headers: dict = None) -> SimpleNamespace:
    request = urllib.request.Request(server.url + path,
                                     headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return SimpleNamespace(status=response.status,
                                   headers=dict(response.headers),
                                   body=response.read())
    except urllib.error.HTTPError as error:
        return SimpleNamespace(status=error.code,
                               headers=dict(error.headers),
                               body=error.read())


def http_post_json(server: RegenerationServer, path: str, payload: dict,
                   headers: dict = None) -> SimpleNamespace:
    request = urllib.request.Request(
        server.url + path, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})})
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return SimpleNamespace(status=response.status,
                                   headers=dict(response.headers),
                                   body=response.read())
    except urllib.error.HTTPError as error:
        return SimpleNamespace(status=error.code,
                               headers=dict(error.headers),
                               body=error.read())


def as_json(response: SimpleNamespace) -> dict:
    return json.loads(response.body)


def wait_until(predicate, timeout: float = 10.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


def raw_chunks(server: RegenerationServer, path: str) -> list:
    """GET ``path`` over a bare socket and return the reply's chunked-
    encoding frames as the server cut them (``urllib`` would glue them)."""
    with socket.create_connection((server.host, server.port),
                                  timeout=30) as raw:
        raw.sendall(f"GET {path} HTTP/1.1\r\nHost: {server.host}\r\n"
                    "Connection: close\r\n\r\n".encode("ascii"))
        reply = b""
        while piece := raw.recv(1 << 20):
            reply += piece
    head, _, rest = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200"), head
    chunks = []
    while True:
        size_line, _, rest = rest.partition(b"\r\n")
        size = int(size_line, 16)
        if size == 0:
            return chunks
        chunks.append(rest[:size])
        assert rest[size:size + 2] == b"\r\n"
        rest = rest[size + 2:]


def reference_ndjson(service: RegenerationService, fingerprint: str,
                     relation: str) -> bytes:
    """The NDJSON encoding of the fully materialised relation."""
    summary = service.store.get_summary(fingerprint)
    return ndjson_batch(TupleGenerator(summary.relation(relation)).materialize())


# ---------------------------------------------------------------------- #
# module fixtures: one warm store built by a throwaway service, then a
# fresh service (clean registry: zero recorded solves) behind one server
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    schema = make_toy_schema()
    store = str(tmp_path_factory.mktemp("server-store"))
    with RegenerationService(schema, store=store) as builder:
        builder.summarize(toy_ccs(), timeout=300)
        fingerprint = builder.fingerprint(toy_ccs())
    return SimpleNamespace(schema=schema, store=store, fingerprint=fingerprint)


@pytest.fixture(scope="module")
def service(warm_store):
    service = RegenerationService(warm_store.schema, store=warm_store.store)
    yield service
    service.close()


@pytest.fixture(scope="module")
def server(service):
    with RegenerationServer(service) as server:
        yield server


# ---------------------------------------------------------------------- #
# wire codec
# ---------------------------------------------------------------------- #
class TestWireCodec:
    def test_workload_round_trip_is_fingerprint_exact(self):
        schema = make_toy_schema()
        original = toy_ccs()
        decoded = constraint_set_from_wire(
            json.loads(json.dumps(constraint_set_to_wire(original))))
        assert workload_fingerprint(schema, decoded) == \
            workload_fingerprint(schema, original)

    def test_round_trip_preserves_join_metadata(self):
        predicate = (col("A") < 30).disjoin(col("B").between(5, 9))
        ccs = ConstraintSet([CardinalityConstraint(
            "R", predicate, 123, joined_relations=("R", "S"), query_id="q7")])
        decoded = constraint_set_from_wire(constraint_set_to_wire(ccs))
        cc = list(decoded)[0]
        assert cc.joined_relations == ("R", "S")
        assert cc.query_id == "q7"
        assert cc.predicate == predicate

    @pytest.mark.parametrize("payload", [
        "not an object",
        {"constraints": "nope"},
        {"version": 99, "constraints": []},
        {"constraints": [{"relation": "S"}]},                  # no cardinality
        {"constraints": [{"relation": "S", "cardinality": 1,
                          "predicate": {"A": []}}]},           # not a list
        {"constraints": [{"relation": "S", "cardinality": 1,
                          "predicate": [{"A": [[1]]}]}]},      # bad pair
    ])
    def test_malformed_workloads_rejected(self, payload):
        with pytest.raises(WireFormatError):
            constraint_set_from_wire(payload)

    @pytest.mark.parametrize("total,count", [(0, 1), (7, 3), (700, 8),
                                             (5, 8), (80_000, 16)])
    def test_shard_bounds_partition_exactly(self, total, count):
        rows = []
        previous_stop = 0
        for index in range(1, count + 1):
            start, stop = shard_bounds(total, index, count)
            assert start == previous_stop + 1
            previous_stop = stop
            rows.append(max(0, stop - start + 1))
        assert previous_stop == total
        assert sum(rows) == total
        assert max(rows) - min(rows) <= 1  # near-equal split

    @pytest.mark.parametrize("spec", ["", "3", "0/4", "5/4", "a/b", "1/0"])
    def test_bad_shard_specs_rejected(self, spec):
        with pytest.raises(WireFormatError):
            parse_shard(spec)

    def test_ndjson_batch_shape(self):
        import numpy as np

        from repro.engine.table import Table

        table = Table({"pk": np.array([1, 2], dtype=np.int64),
                       "A": np.array([7, 9], dtype=np.int64)})
        assert ndjson_batch(table) == b'{"pk":1,"A":7}\n{"pk":2,"A":9}\n'
        assert ndjson_batch(Table({"pk": np.array([], dtype=np.int64)})) == b""


# ---------------------------------------------------------------------- #
# the summary-run encoder against the reference encoder
# ---------------------------------------------------------------------- #
INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1

#: Names needing every kind of JSON escape, and plain ones.
_NAMES = st.text(alphabet='ab"\\/é☃\n\t ', min_size=1, max_size=4)
_VALUES = st.one_of(st.sampled_from([INT64_MIN, INT64_MAX, 0, -1]),
                    st.integers(INT64_MIN, INT64_MAX))
#: Short runs, empty runs, and runs many batches long.
_COUNTS = st.one_of(st.just(1), st.integers(0, 12), st.just(1000))


@st.composite
def relation_summaries(draw) -> RelationSummary:
    names = draw(st.lists(_NAMES, min_size=1, max_size=4, unique=True))
    values = st.tuples(*[_VALUES] * (len(names) - 1))
    rows = draw(st.lists(st.tuples(values, _COUNTS), max_size=8))
    return RelationSummary("rel", names[0], tuple(names[1:]), rows)


class TestSummaryEncoder:
    """``ndjson_encoder`` (what ``/v1/stream`` runs) must equal
    ``ndjson_batch`` (what defines the format) byte for byte."""

    @given(relation_summaries())
    @example(RelationSummary("rel", "pk", ("a",), []))
    @example(RelationSummary("rel", "pk", ("a", "b"), [((-5, 7), 9000)]))
    @example(RelationSummary("rel", 'p"k\\', ("é", "\n"),
                             [((INT64_MIN, INT64_MAX), 1)] * 9))
    @example(RelationSummary("rel", "pk", (), [((), 3), ((), 0), ((), 5)]))
    @settings(max_examples=40, deadline=None)
    def test_byte_identical_to_reference(self, summary):
        generator = TupleGenerator(summary)
        encode = ndjson_encoder(generator)

        def reference(start: int, stop: int) -> bytes:
            return ndjson_batch(generator._batch(start, stop))

        total = generator.total_rows
        whole = ndjson_batch(generator.materialize())
        for shard_count in (1, 3, 8):
            body = b""
            for index in range(1, shard_count + 1):
                start, stop = shard_bounds(total, index, shard_count)
                for batch_size in (1, 7, 4096):
                    windows = list(generator.encode_range(
                        lambda a, b: (a, b), start, stop, batch_size))
                    encoded = list(generator.encode_range(
                        encode, start, stop, batch_size))
                    assert encoded == [reference(a, b) for a, b in windows]
                body += b"".join(encoded)
            assert body == whole
        # Batch boundaries at the first row of, at the last row of, inside
        # and straddling every summary run.
        first = 1
        for _, count in summary.rows:
            if not count:
                continue
            last = first + count - 1
            for start, stop in ((first, first), (last, last), (first, last),
                                (max(first - 1, 1), first),
                                (last, min(last + 1, total)),
                                (min(first + 1, last), max(last - 1, first))):
                if start <= stop:
                    assert encode(start, stop) == reference(start, stop)
            first = last + 1


# ---------------------------------------------------------------------- #
# warm serving over the socket
# ---------------------------------------------------------------------- #
class TestWarmServing:
    def test_summarize_serves_warm(self, server, warm_store):
        response = http_post_json(server, "/v1/summarize", {
            "workload": constraint_set_to_wire(toy_ccs()),
            "tenant": "alpha",
        })
        assert response.status == 200
        body = as_json(response)
        assert body["warm"] is True
        assert body["fingerprint"] == warm_store.fingerprint
        assert body["relations"] == {"S": 700, "T": 1500, "R": 80_000}
        assert body["total_rows"] == 82_200

    @pytest.mark.parametrize("shard_count", [1, 3, 8])
    def test_stream_matches_materialize_bytes(self, server, service,
                                              warm_store, shard_count):
        fingerprint = warm_store.fingerprint
        collected = b""
        shard_rows = 0
        for index in range(1, shard_count + 1):
            response = http_get(
                server,
                f"/v1/stream/{fingerprint}/S?shard={index}/{shard_count}"
                "&batch_size=97")
            assert response.status == 200
            assert response.headers["Content-Type"] == "application/x-ndjson"
            assert response.headers["X-Repro-Total-Rows"] == "700"
            assert response.headers["X-Repro-Shard"] == f"{index}/{shard_count}"
            shard_rows += int(response.headers["X-Repro-Shard-Rows"])
            collected += response.body
        assert shard_rows == 700
        assert collected == reference_ndjson(service, fingerprint, "S")

    def test_hostile_batch_size_is_served_in_capped_chunks(self, server,
                                                           warm_store):
        # `?batch_size=10**12` must not make one O(relation) batch: same
        # body as any other batch size, cut at the server's cap.
        path = f"/v1/stream/{warm_store.fingerprint}/R"
        sane = http_get(server, path + "?batch_size=4096")
        assert sane.status == 200
        chunks = raw_chunks(server, path + f"?batch_size={10 ** 12}")
        assert b"".join(chunks) == sane.body
        assert [chunk.count(b"\n") for chunk in chunks] == \
            [MAX_STREAM_BATCH_ROWS, 80_000 - MAX_STREAM_BATCH_ROWS]

    def test_stream_span_splits_encode_from_write(self, server, warm_store):
        tracer = get_tracer()
        tracer.clear()
        trace_id = "e" * 32
        response = http_get(
            server, f"/v1/stream/{warm_store.fingerprint}/S?batch_size=97",
            headers={TRACE_HEADER: trace_id})
        assert response.status == 200
        wait_until(lambda: any(s["name"] == "server.request"
                               for s in tracer.spans()),
                   message="server.request span export")
        spans = {s["name"]: s for s in tracer.spans()
                 if s["trace_id"] == trace_id}
        # The summary-run path keeps the span tree the Table path had.
        assert {"server.request", "service.stream",
                "tuplegen.stream_range"} <= set(spans)
        attributes = spans["server.request"]["attributes"]
        assert attributes["rows"] == 700
        assert attributes["bytes"] == len(response.body)
        assert attributes["encode_s"] >= 0 and attributes["write_s"] >= 0
        assert spans["tuplegen.stream_range"]["attributes"]["batches"] == 8
        encode = server.registry.snapshot()[
            "repro_server_stream_encode_seconds"]
        assert encode["count"] >= 1

    def test_zero_lp_solves_on_warm_path(self, server, service, warm_store):
        # The module service never built anything — its registry must show
        # zero solver invocations even after summarize + stream over HTTP.
        http_post_json(server, "/v1/summarize",
                       {"workload": constraint_set_to_wire(toy_ccs())})
        http_get(server,
                 f"/v1/stream/{warm_store.fingerprint}/T?batch_size=400")
        response = http_get(server, "/metrics")
        assert response.status == 200
        text = response.body.decode()
        assert "repro_lp_components_solved_total 0" in text
        assert service.stats()["pipeline_runs"] == 0

    def test_healthz(self, server):
        response = http_get(server, "/healthz")
        assert response.status == 200
        body = as_json(response)
        assert body["status"] == "ok"
        assert "engine" not in body

    def test_stats_endpoint(self, server):
        http_post_json(server, "/v1/summarize", {
            "workload": constraint_set_to_wire(toy_ccs()),
            "tenant": "stats-tenant",
        })
        body = as_json(http_get(server, "/v1/stats"))
        # The keys bench_e2e's never-cold check and the CI smoke read.
        counters = body["counters"]
        assert counters["hits"] >= 1
        assert counters["pipeline_runs"] == 0
        assert counters["solver_components_solved"] == 0
        assert body["queue_depth"] == counters["queue_depth"] == 0
        tenants = {row["tenant"]: row for row in body["tenants"]}
        assert "stats-tenant" not in tenants or \
            tenants["stats-tenant"]["admitted"] == 0  # warm: no cold build

    def test_metrics_scrape_parses(self, server):
        http_get(server, "/healthz")
        response = http_get(server, "/metrics")
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        line_re = re.compile(
            r"^[a-z_:][a-z0-9_:]*(\{[^}]*\})? -?[0-9][0-9a-z.+-]*$",
            re.IGNORECASE)
        lines = response.body.decode().splitlines()
        assert lines, "empty scrape"
        for line in lines:
            if line.startswith("#") or not line.strip():
                continue
            assert line_re.match(line), f"unparseable metric line: {line!r}"
        text = "\n".join(lines)
        assert 'repro_server_requests_total{endpoint="healthz",code="200"}' \
            in text
        assert "repro_server_active_requests" in text


# ---------------------------------------------------------------------- #
# trace propagation across the socket
# ---------------------------------------------------------------------- #
class TestTracePropagation:
    def test_trace_id_round_trips_into_span_jsonl(self, server, warm_store,
                                                  tmp_path):
        tracer = get_tracer()
        tracer.clear()
        trace_id = "f" * 32
        response = http_post_json(
            server, "/v1/summarize",
            {"workload": constraint_set_to_wire(toy_ccs())},
            headers={TRACE_HEADER: trace_id})
        assert response.status == 200
        assert response.headers[TRACE_HEADER] == trace_id

        path = tmp_path / "spans.jsonl"
        wait_until(lambda: any(s["name"] == "server.request"
                               for s in tracer.spans()),
                   message="server.request span export")
        tracer.export(path)
        records = parse_jsonl(path.read_text())
        in_trace = [r for r in records if r["trace_id"] == trace_id]
        names = {r["name"] for r in in_trace}
        assert "server.request" in names
        assert "service.submit" in names  # the service span joined the trace
        roots = [r for r in build_tree(in_trace) if r["parent_id"] is None]
        assert [r["name"] for r in roots] == ["server.request"]
        assert roots[0]["attributes"]["status"] == 200

    def test_untraced_requests_get_no_header(self, server):
        response = http_get(server, "/healthz")
        assert TRACE_HEADER not in response.headers


# ---------------------------------------------------------------------- #
# error mapping
# ---------------------------------------------------------------------- #
class TestErrorContracts:
    # The statuses every kernel-mounted server answers alike (unknown route,
    # body cap, body shape, last-resort 500) are in tests/test_http_kernel.py;
    # these are the ones this server's route table and endpoints decide.
    def test_unknown_route_404(self, server):
        # a routed path under a method it is not routed for
        assert http_post_json(server, "/healthz", {}).status == 404
        for method, path in (("PUT", "/v1/summarize"),
                             ("DELETE", f"/v1/stream/{'0' * 64}/S")):
            request = urllib.request.Request(server.url + path, data=b"{}",
                                             method=method)
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=30)
            assert info.value.code == 404
            assert json.loads(info.value.read())["error"] == \
                f"no route for {method} {path}"
        wait_until(lambda: server.registry.snapshot().get(
            'repro_server_requests_total{endpoint="unknown",code="404"}',
            0) >= 3, message="unrouted requests counted as unknown")

    def test_unknown_fingerprint_404(self, server):
        response = http_get(server, f"/v1/stream/{'0' * 64}/S")
        assert response.status == 404
        assert "submit the workload" in as_json(response)["error"]

    def test_unknown_relation_404(self, server, warm_store):
        response = http_get(
            server, f"/v1/stream/{warm_store.fingerprint}/Missing")
        assert response.status == 404

    @pytest.mark.parametrize("query", ["shard=9/4", "shard=bad",
                                       "batch_size=0", "batch_size=x"])
    def test_bad_stream_params_400(self, server, warm_store, query):
        response = http_get(
            server, f"/v1/stream/{warm_store.fingerprint}/S?{query}")
        assert response.status == 400

    @pytest.mark.parametrize("payload", [{}, {"workload": 17},
                                         {"workload": {"constraints": "x"}}])
    def test_bad_summarize_body_400(self, server, payload):
        assert http_post_json(server, "/v1/summarize", payload).status == 400

    def test_non_json_body_400(self, server):
        # both submission endpoints read their body through the same parser
        for path in ("/v1/summarize", "/v1/resummarize"):
            request = urllib.request.Request(
                server.url + path, data=b"\xff\xfenot json")
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=30)
            assert info.value.code == 400

    @pytest.mark.parametrize("endpoint", ["summarize", "resummarize"])
    @pytest.mark.parametrize("timeout", ["abc", None, [], {"s": 1},
                                         float("inf"), float("nan")])
    def test_bad_timeout_400(self, server, warm_store, endpoint, timeout):
        response = http_post_json(server, f"/v1/{endpoint}", {
            "workload": constraint_set_to_wire(toy_ccs()),
            "base_fingerprint": warm_store.fingerprint,
            "timeout": timeout,
        })
        assert response.status == 400
        assert "'timeout'" in as_json(response)["error"]


# ---------------------------------------------------------------------- #
# status contracts: 409 (require_warm), 429 (overload), 503 (busy/drain)
# ---------------------------------------------------------------------- #
class TestStatusContracts:
    def test_require_warm_409_for_cold_workload(self, warm_store):
        with RegenerationService(warm_store.schema,
                                 store=warm_store.store) as service:
            with RegenerationServer(service, require_warm=True) as server:
                warm = http_post_json(server, "/v1/summarize", {
                    "workload": constraint_set_to_wire(toy_ccs())})
                assert warm.status == 200

                cold = http_post_json(server, "/v1/summarize", {
                    "workload": constraint_set_to_wire(toy_ccs().scaled(3.0))})
                assert cold.status == 409
                assert "fingerprint" in as_json(cold)
            assert service.stats()["pipeline_runs"] == 0

    def test_overloaded_submission_429(self, warm_store):
        with RegenerationService(warm_store.schema, store=warm_store.store,
                                 config=RegenConfig(max_pending=0)) as service:
            with RegenerationServer(service) as server:
                # warm workloads are always admitted
                assert http_post_json(server, "/v1/summarize", {
                    "workload": constraint_set_to_wire(toy_ccs()),
                }).status == 200
                cold = http_post_json(server, "/v1/summarize", {
                    "workload": constraint_set_to_wire(toy_ccs().scaled(2.0))})
                assert cold.status == 429
                assert cold.headers["Retry-After"] == "1"
        assert service.stats()["rejected_submissions"] == 1

    def test_max_connections_503(self, warm_store):
        with RegenerationService(warm_store.schema, store=warm_store.store,
                                 config=RegenConfig(max_connections=1)) \
                as service:
            with RegenerationServer(service) as server:
                # Occupy the only slot with a stream too large for the
                # socket buffers, read only its headers.
                connection = http.client.HTTPConnection(server.host,
                                                        server.port,
                                                        timeout=30)
                connection.request(
                    "GET", f"/v1/stream/{warm_store.fingerprint}/R"
                           "?batch_size=2000")
                response = connection.getresponse()
                assert response.status == 200
                wait_until(lambda: server.active_requests() >= 1,
                           message="stream registered in flight")
                busy = http_get(server, "/v1/stats")
                assert busy.status == 503
                assert as_json(busy)["status"] == "busy"
                assert busy.headers["Retry-After"] == "1"
                # Drain the stream; capacity frees up again.
                response.read()
                connection.close()
                wait_until(lambda: server.active_requests() == 0,
                           message="stream drained")
                assert http_get(server, "/v1/stats").status == 200

    def test_graceful_shutdown_drains_streams(self, warm_store):
        service = RegenerationService(warm_store.schema,
                                      store=warm_store.store)
        server = RegenerationServer(service).start()
        fingerprint = warm_store.fingerprint
        # In-flight stream: R's ~3 MB NDJSON cannot fit the socket buffers.
        stream_connection = http.client.HTTPConnection(server.host,
                                                       server.port,
                                                       timeout=60)
        stream_connection.request(
            "GET", f"/v1/stream/{fingerprint}/R?batch_size=4000")
        stream_response = stream_connection.getresponse()
        first = stream_response.read(100_000)
        # A second keep-alive connection established before the drain starts.
        idle_connection = http.client.HTTPConnection(server.host, server.port,
                                                     timeout=30)
        idle_connection.request("GET", "/healthz")
        assert idle_connection.getresponse().read()

        shutdown = threading.Thread(target=server.shutdown)
        shutdown.start()
        try:
            wait_until(lambda: server.draining, message="drain to start")
            # New work on the surviving connection is refused while draining.
            idle_connection.request("GET", "/v1/stats")
            refused = idle_connection.getresponse()
            body = json.loads(refused.read())
            assert refused.status == 503
            assert body["status"] == "draining"
            # ...but the in-flight stream runs to completion, intact.
            rest = stream_response.read()
            assert (first + rest) == reference_ndjson(service, fingerprint,
                                                      "R")
        finally:
            stream_connection.close()
            idle_connection.close()
            shutdown.join(timeout=30)
        assert not shutdown.is_alive()
        assert service.store.pin_count(fingerprint) == 0
        service.close()


# ---------------------------------------------------------------------- #
# concurrent multi-tenant admission over HTTP
# ---------------------------------------------------------------------- #
def _gated_build(gate: threading.Event):
    """A stand-in for ``Hydra.build_summary`` whose builds block on ``gate``
    (per-tenant admission tests need cold builds that stay pending without
    burning LP time)."""
    def build_summary(constraints, relations=None):
        gate.wait(timeout=60)
        summary = DatabaseSummary()
        summary.relations["S"] = RelationSummary(
            relation="S", primary_key="S_pk", columns=("A", "B"),
            rows=[((1, 2), len(constraints))])
        return HydraResult(summary=summary)
    return build_summary


class TestMultiTenant:
    def test_noisy_tenant_throttled_quiet_admitted(self, monkeypatch):
        schema = make_toy_schema()
        gate = threading.Event()
        service = RegenerationService(schema, config=RegenConfig(
            max_workers=1, max_pending_per_tenant=1))
        monkeypatch.setattr(service.pipeline, "build_summary",
                            _gated_build(gate))
        try:
            with RegenerationServer(service) as server:
                def submit(tenant: str, scale: float, out: list) -> None:
                    response = http_post_json(server, "/v1/summarize", {
                        "workload": constraint_set_to_wire(
                            toy_ccs().scaled(scale)),
                        "tenant": tenant,
                        "wait": False,
                    })
                    out.append(response.status)

                # The noisy tenant floods distinct cold workloads
                # concurrently; the quiet tenant sends one.
                noisy: list = []
                quiet: list = []
                threads = [threading.Thread(target=submit,
                                            args=("noisy", 2.0 + i, noisy))
                           for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                submit("quiet", 50.0, quiet)

                assert sorted(noisy).count(202) == 1   # one admitted
                assert sorted(noisy).count(429) == 3   # the rest throttled
                assert quiet == [202]                  # quiet unaffected
                body = as_json(http_get(server, "/v1/stats"))
                tenants = {row["tenant"]: row for row in body["tenants"]}
                assert set(tenants["noisy"]) == {
                    "tenant", "admitted", "rejected", "completed", "failed",
                    "queued", "running"}
                assert tenants["noisy"]["admitted"] == 1
                assert tenants["noisy"]["rejected"] == 3
                assert tenants["quiet"]["rejected"] == 0
                gate.set()
                wait_until(lambda: service.stats()["queue_depth"] == 0,
                           message="queued builds to finish")
        finally:
            gate.set()
            service.close()


# ---------------------------------------------------------------------- #
# abrupt disconnects and the idle-cursor reaper
# ---------------------------------------------------------------------- #
class TestPinRelease:
    def test_abrupt_disconnect_releases_pin(self, warm_store):
        with RegenerationService(warm_store.schema,
                                 store=warm_store.store) as service:
            with RegenerationServer(service) as server:
                fingerprint = warm_store.fingerprint
                raw = socket.create_connection((server.host, server.port),
                                               timeout=30)
                raw.sendall(
                    f"GET /v1/stream/{fingerprint}/R?batch_size=2000"
                    f" HTTP/1.1\r\nHost: {server.host}\r\n\r\n"
                    .encode("ascii"))
                raw.recv(65536)  # read a little of the stream...
                wait_until(
                    lambda: service.store.pin_count(fingerprint) >= 1,
                    message="stream to take its pin")
                # ...then vanish without closing the stream properly.
                raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                               b"\x01\x00\x00\x00\x00\x00\x00\x00")  # RST
                raw.close()
                wait_until(
                    lambda: service.store.pin_count(fingerprint) == 0,
                    message="disconnect to release the store pin")

    def test_aborted_stream_is_still_counted(self, warm_store, caplog):
        # What the server wrote before the client vanished was written:
        # byte and row counters must not lose it, and a disconnect is a
        # 499, not a logged 500.
        with RegenerationService(warm_store.schema,
                                 store=warm_store.store) as service:
            with RegenerationServer(service) as server:
                fingerprint = warm_store.fingerprint
                raw = socket.create_connection((server.host, server.port),
                                               timeout=30)
                raw.sendall(
                    f"GET /v1/stream/{fingerprint}/R?batch_size=2000"
                    f" HTTP/1.1\r\nHost: {server.host}\r\n\r\n"
                    .encode("ascii"))
                received = 0  # the head and a chunk or two, then vanish
                while received < 200_000:
                    received += len(raw.recv(65536))
                raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                               b"\x01\x00\x00\x00\x00\x00\x00\x00")  # RST
                raw.close()
                aborted = 'repro_server_requests_total' \
                          '{endpoint="stream",code="499"}'
                wait_until(
                    lambda: server.registry.snapshot().get(aborted) == 1,
                    message="the aborted stream to be counted as a 499")
                snapshot = server.registry.snapshot()
                assert snapshot["repro_server_bytes_sent_total"] > 0
                assert 0 < snapshot["repro_server_rows_streamed_total"] \
                    < 80_000
                assert snapshot["repro_server_stream_encode_seconds"][
                    "count"] == 1
                assert service.store.pin_count(fingerprint) == 0
                assert not [key for key in snapshot if 'code="500"' in key]
                assert "unhandled error" not in caplog.text

    def test_reaper_reclaims_abandoned_cursor(self, warm_store):
        with RegenerationService(warm_store.schema,
                                 store=warm_store.store) as service:
            fingerprint = warm_store.fingerprint
            cursor = service.stream(fingerprint, "S", batch_size=100)
            next(cursor)
            assert service.store.pin_count(fingerprint) == 1
            # Reader dies; its cursor reference survives (no GC rescue).
            assert service.reap_idle_cursors(idle_seconds=100.0) == 0
            time.sleep(0.05)
            assert service.reap_idle_cursors(idle_seconds=0.01) == 1
            assert service.store.pin_count(fingerprint) == 0
            with pytest.raises(ServiceError, match="reaped"):
                next(cursor)
            assert service.stats()["cursors_reaped"] == 1
            # Idempotent: the same cursor is never reaped (or unpinned) twice.
            assert service.reap_idle_cursors(idle_seconds=0.01) == 0

    def test_background_reaper_thread(self, warm_store):
        service = RegenerationService(
            warm_store.schema, store=warm_store.store,
            config=RegenConfig(cursor_idle_timeout=0.2))
        try:
            fingerprint = warm_store.fingerprint
            cursor = service.stream(fingerprint, "S", batch_size=100)
            next(cursor)
            wait_until(
                lambda: service.store.pin_count(fingerprint) == 0,
                timeout=15.0,
                message="background reaper to reclaim the pin")
            with pytest.raises(ServiceError, match="reaped"):
                next(cursor)
        finally:
            service.close()

    def test_active_cursor_not_reaped(self, warm_store):
        with RegenerationService(warm_store.schema,
                                 store=warm_store.store) as service:
            cursor = service.stream(warm_store.fingerprint, "S",
                                    batch_size=50)
            for _ in range(3):
                next(cursor)
                assert service.reap_idle_cursors(idle_seconds=30.0) == 0
            cursor.close()
            assert service.store.pin_count(warm_store.fingerprint) == 0


# ---------------------------------------------------------------------- #
# config knobs
# ---------------------------------------------------------------------- #
def _refuses_cold_builds(service, warm_store) -> None:
    with pytest.raises(ServiceOverloadedError):
        service.submit(toy_ccs().scaled(7.0))


def _runs_background_gc(service, warm_store) -> None:
    wait_until(lambda: service.stats()["gc_runs"] >= 1,
               message="a background GC pass")


def _reaps_idle_cursors(service, warm_store) -> None:
    cursor = service.stream(warm_store.fingerprint, "S", batch_size=100)
    next(cursor)
    wait_until(lambda: service.store.pin_count(warm_store.fingerprint) == 0,
               message="the reaper to reclaim the idle cursor's pin")


def _sizes_the_worker_pool(service, warm_store) -> None:
    assert service._executor._max_workers == 3


#: Each service knob: a non-default value and a probe that observes it on
#: the live service.
SERVICE_KNOBS = {
    "max_workers": (3, _sizes_the_worker_pool),
    "max_pending": (0, _refuses_cold_builds),
    "max_pending_per_tenant": (0, _refuses_cold_builds),
    "gc_interval": (0.05, _runs_background_gc),
    "cursor_idle_timeout": (0.1, _reaps_idle_cursors),
}

#: Each server knob: a non-default value and the server attribute the HTTP
#: kernel and handlers read it from.
SERVER_KNOBS = {
    "max_connections": (3, "max_connections"),
    "request_timeout": (4.5, "socket_timeout"),
    "max_request_bytes": (1024, "max_request_bytes"),
    "batch_size": (17, "default_batch_size"),
}


class TestServingConfig:
    def test_knob_validation(self):
        with pytest.raises(ConfigError):
            RegenConfig(max_request_bytes=0)
        with pytest.raises(ConfigError):
            RegenConfig(max_connections=0)
        with pytest.raises(ConfigError):
            RegenConfig(request_timeout=0.0)
        with pytest.raises(ConfigError):
            RegenConfig(cursor_idle_timeout=-1.0)
        RegenConfig(max_request_bytes=1, max_connections=1,
                    request_timeout=0.5, cursor_idle_timeout=5.0)

    def test_serving_knobs_do_not_change_fingerprints(self):
        schema = make_toy_schema()
        base = RegenerationService(schema, config=RegenConfig())
        tuned = RegenerationService(schema, config=RegenConfig(
            max_connections=2, request_timeout=1.5, max_request_bytes=1024,
            cursor_idle_timeout=9.0))
        try:
            assert base.fingerprint(toy_ccs()) == tuned.fingerprint(toy_ccs())
        finally:
            base.close()
            tuned.close()

    def test_config_threads_cursor_idle_timeout(self):
        schema = make_toy_schema()
        service = RegenerationService(
            schema, config=RegenConfig(cursor_idle_timeout=123.0))
        try:
            assert service._gc_thread is not None
        finally:
            service.close()

    @pytest.mark.parametrize("knob", sorted(SERVICE_KNOBS))
    def test_service_knob_reaches_the_live_service(self, knob, warm_store):
        value, probe = SERVICE_KNOBS[knob]
        with RegenerationService(warm_store.schema, store=warm_store.store,
                                 config=RegenConfig(**{knob: value})) \
                as service:
            probe(service, warm_store)

    @pytest.mark.parametrize("knob", sorted(SERVER_KNOBS))
    def test_server_knob_reaches_the_live_server(self, knob, warm_store):
        value, attribute = SERVER_KNOBS[knob]
        with RegenerationService(warm_store.schema, store=warm_store.store,
                                 config=RegenConfig(**{knob: value})) \
                as service:
            with RegenerationServer(service) as server:
                assert getattr(server, attribute) == value
