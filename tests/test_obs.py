"""Tier-1 tests of the unified observability layer (``repro.obs``).

Covers the metric primitives (counter exactness under threads, histogram
quantile error bounds via hypothesis, Prometheus round-trip), request
tracing (parent/child across the service's worker pool, JSONL export and
tree reconstruction), structured logging (caplog events, JSON handler,
trace correlation), the registry-backed ``stats()``/``service_stats()``
views (per-tenant latency read off the registry's histograms) and the LP solver's phase timings on
the service registry.
"""

from __future__ import annotations

import io
import json
import logging
import math
import re
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.config import RegenConfig
from repro.constraints.cc import CardinalityConstraint
from repro.constraints.workload import ConstraintSet
from repro.errors import ConfigError
from repro.lp.model import LPModel
from repro.lp.solver import ParallelLPSolver
from repro.obs.logging import configure_logging, get_logger
from repro.obs.metrics import QUANTILE_RELATIVE_ERROR, MetricsRegistry
from repro.obs.trace import build_tree, get_tracer, parse_jsonl, span
from repro.predicates.dnf import DNFPredicate, col
from repro.service.service import RegenerationService


def toy_ccs(name: str = "obs-ccs", r_rows: int = 80_000) -> ConstraintSet:
    """A small, fast constraint set over the Figure 1 toy schema."""
    ccs = ConstraintSet(name=name)
    ccs.add(CardinalityConstraint("S", col("A").between(20, 60), 400))
    ccs.add(CardinalityConstraint("S", DNFPredicate.true(), 700))
    ccs.add(CardinalityConstraint("T", col("C") == 2, 900))
    ccs.add(CardinalityConstraint("T", DNFPredicate.true(), 1500))
    ccs.add(CardinalityConstraint("R", DNFPredicate.true(), r_rows))
    return ccs


@pytest.fixture
def tracer():
    """The process tracer, cleared and restored around each test."""
    tracer = get_tracer()
    previous = tracer.sample
    tracer.clear()
    yield tracer
    tracer.configure(sample=previous)
    tracer.clear()


@pytest.fixture
def log_stream():
    """A JSON log handler writing into a StringIO, detached afterwards."""
    root = logging.getLogger("repro")
    previous_level = root.level
    stream = io.StringIO()
    handler = configure_logging(level=logging.DEBUG, log_format="json",
                                stream=stream)
    yield stream
    root.removeHandler(handler)
    root.setLevel(previous_level)


# ---------------------------------------------------------------------- #
# metric primitives
# ---------------------------------------------------------------------- #
class TestMetricsPrimitives:
    def test_counter_exact_under_threads(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total", "threaded counter")
        threads = [
            threading.Thread(
                target=lambda: [counter.inc() for _ in range(10_000)])
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value() == 80_000

    def test_labeled_counter_children_are_independent(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_test_labeled_total", "labeled",
                                  labelnames=("tenant",))
        family.labels(tenant="a").inc(3)
        family.labels(tenant="b").inc(5)
        assert family.labels(tenant="a").value() == 3
        assert family.labels(tenant="b").value() == 5
        assert sum(child.value() for child in family.children()) == 8

    def test_disabled_registry_is_a_noop(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("repro_test_total", "disabled")
        histogram = registry.histogram("repro_test_seconds", "disabled")
        counter.inc(7)
        histogram.observe(0.5)
        assert counter.value() == 0
        assert histogram.summary()["count"] == 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=1e-5, max_value=1e3),
                    min_size=1, max_size=200),
           st.sampled_from([0.5, 0.9, 0.95, 0.99]))
    def test_quantile_estimate_within_one_bucket_ratio(self, values, q):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_test_seconds", "quantiles")
        for value in values:
            histogram.observe(value)
        estimate = histogram.quantile(q)
        ranked = sorted(values)
        exact = ranked[max(0, math.ceil(q * len(ranked)) - 1)]
        tolerance = QUANTILE_RELATIVE_ERROR * 1.0001
        assert exact / tolerance <= estimate <= exact * tolerance

    def test_quantile_of_empty_histogram_is_nan(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_test_seconds", "empty")
        assert math.isnan(histogram.quantile(0.5))

    def test_gauge_set_max(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_test_gauge", "peak")
        gauge.set_max(4)
        gauge.set_max(2)
        assert gauge.value() == 4


PROM_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$"
)


def parse_prometheus(text: str):
    """Parse exposition text into ``{(name, labels_str): float}``; raises on
    any malformed line — the round-trip assertion."""
    series = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = PROM_LINE.match(line)
        assert match is not None, f"unparseable exposition line: {line!r}"
        value = float(match.group("value"))
        series[(match.group("name"), match.group("labels") or "")] = value
    return series


class TestPrometheusRoundTrip:
    def test_export_parses_and_reconstructs(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total", "c").inc(3)
        registry.gauge("repro_test_gauge", "g",
                       labelnames=("kind",)).labels(kind="x").set(1.5)
        histogram = registry.histogram("repro_test_seconds", "h")
        observations = [0.001, 0.01, 0.01, 0.1, 2.0]
        for value in observations:
            histogram.observe(value)

        series = parse_prometheus(registry.to_prometheus())

        assert series[("repro_test_total", "")] == 3.0
        assert series[("repro_test_gauge", 'kind="x"')] == 1.5
        assert series[("repro_test_seconds_count", "")] == len(observations)
        assert series[("repro_test_seconds_sum", "")] == pytest.approx(
            sum(observations))
        buckets = sorted(
            ((labels, value) for (name, labels), value in series.items()
             if name == "repro_test_seconds_bucket"),
            key=lambda item: (math.inf if "+Inf" in item[0]
                              else float(item[0].split('"')[1])),
        )
        counts = [value for _, value in buckets]
        assert counts == sorted(counts)  # cumulative
        assert counts[-1] == len(observations)  # +Inf sees everything

    def test_json_export_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total", "c").inc(2)
        dump = json.loads(registry.to_json())
        assert dump["repro_test_total"]["kind"] == "counter"
        assert dump["repro_test_total"]["series"][0]["value"] == 2.0


# ---------------------------------------------------------------------- #
# tracing
# ---------------------------------------------------------------------- #
class TestTracing:
    def test_nested_spans_share_a_trace(self, tracer):
        tracer.configure(sample=1.0)
        with span("outer") as outer:
            with span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        records = tracer.spans()
        assert [record["name"] for record in records] == ["inner", "outer"]

    def test_unsampled_tracer_records_nothing(self, tracer):
        tracer.configure(sample=0.0)
        with span("invisible"):
            pass
        assert tracer.spans() == []

    def test_error_spans_carry_status_and_message(self, tracer):
        tracer.configure(sample=1.0)
        with pytest.raises(ValueError):
            with span("failing"):
                raise ValueError("boom")
        (record,) = tracer.spans()
        assert record["status"] == "error"
        assert "ValueError: boom" in record["error"]

    def test_service_build_parents_under_submit_across_worker_pool(
            self, toy_schema, tracer, tmp_path):
        tracer.configure(sample=1.0)
        config = RegenConfig(workers=1, max_workers=1, trace_sample=1.0)
        with RegenerationService(toy_schema, store=str(tmp_path / "store"),
                                 config=config) as service:
            ticket = service.submit(toy_ccs())
            summary = ticket.result()
            relation = sorted(summary.relations)[0]
            for _ in service.stream(ticket.fingerprint, relation,
                                    batch_size=512):
                pass

        records = parse_jsonl(tracer.to_jsonl())
        by_name = {record["name"]: record for record in records}
        submit = by_name["service.submit"]
        build = by_name["service.build"]
        # The build ran on a pool thread yet joins the submitter's trace.
        assert build["trace_id"] == submit["trace_id"]
        assert build["parent_id"] == submit["span_id"]
        assert "backend.build" not in by_name
        assert by_name["lp.solve_many"]["trace_id"] == submit["trace_id"]
        assert by_name["lp.solve_many"]["parent_id"] == build["span_id"]
        formulate = [r for r in records if r["name"] == "lp.formulate"]
        assert formulate
        for record in formulate:
            assert record["parent_id"] == build["span_id"]
            assert set(record["attributes"]) == {
                "relation", "variables", "constraints", "rungs",
                "partition_calls", "aligned"}
            assert record["attributes"]["rungs"] >= 1

        tree = build_tree(records)
        roots = {node["name"] for node in tree}
        assert "service.submit" in roots
        submit_node = next(n for n in tree if n["name"] == "service.submit")

        def names(node):
            out = {node["name"]}
            for child in node.get("children", ()):
                out |= names(child)
            return out

        assert {"service.build", "lp.solve_many"} <= names(submit_node)
        # The streaming cursor finished its own (non-current) span too.
        assert "tuplegen.stream_range" in {r["name"] for r in records}

    def test_verify_span_counts_runs_against_tuples(self, toy_schema, tracer):
        tracer.configure(sample=1.0)
        config = RegenConfig(workers=1, trace_sample=1.0)
        with RegenerationService(toy_schema, config=config) as service:
            report = service.verify(toy_ccs())
        (record,) = [r for r in tracer.spans() if r["name"] == "service.verify"]
        attributes = record["attributes"]
        assert set(attributes) == {"relations", "runs", "tuples"}
        assert attributes["relations"] == 3  # one denormalised view per root
        # Each view's root scan regenerated its whole relation ...
        assert attributes["tuples"] == 80_000 + 700 + 1_500
        # ... yet the operators only ever saw summary rows.
        assert 0 < attributes["runs"] < attributes["tuples"] / 1_000
        assert len(report.results) == len(list(toy_ccs()))

    def test_solve_many_span_counts_components_per_rung(self, tracer):
        tracer.configure(sample=1.0)
        model = LPModel(name="two-rungs", num_variables=4)
        # x0 = 3, x1 = 2, x0 + x1 = 5: full column rank, one solution.
        model.add_constraint([0], 3)
        model.add_constraint([1], 2)
        model.add_constraint([0, 1], 5)
        # x2 + x3 = 7: more columns than rows, so the MILP answers.
        model.add_constraint([2, 3], 7)
        solution = ParallelLPSolver(workers=1).solve(model)
        assert solution.method == "decomposed[milp+unique]"
        (record,) = [r for r in tracer.spans() if r["name"] == "lp.solve_many"]
        assert record["attributes"]["solved_by"] == {"milp": 1, "unique": 1}

    def test_jsonl_export_file_round_trips(self, toy_schema, tracer,
                                           tmp_path):
        tracer.configure(sample=1.0)
        with span("exported", key="value"):
            pass
        path = tmp_path / "trace.jsonl"
        assert tracer.export(path) == 1
        (record,) = parse_jsonl(path.read_text())
        assert record["name"] == "exported"
        assert record["attributes"] == {"key": "value"}


# ---------------------------------------------------------------------- #
# service telemetry views
# ---------------------------------------------------------------------- #
class TestServiceTelemetry:
    def test_concurrent_tenants_populate_latency_quantiles(
            self, toy_schema, tmp_path):
        config = RegenConfig(workers=1, max_workers=2)
        with RegenerationService(toy_schema, store=str(tmp_path / "store"),
                                 config=config) as service:
            def run(tenant, r_rows):
                ticket = service.submit(toy_ccs(r_rows=r_rows), tenant=tenant)
                summary = ticket.result()
                relation = sorted(summary.relations)[0]
                for _ in service.stream(ticket.fingerprint, relation,
                                        batch_size=512, tenant=tenant):
                    pass

            threads = [
                threading.Thread(target=run, args=("acme", 60_000)),
                threading.Thread(target=run, args=("globex", 70_000)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            stats = service.service_stats()
            assert {row.tenant for row in stats.tenants} >= {"acme", "globex"}
            # Per-tenant latency is read off the registry's tenant-labelled
            # histograms, the series /metrics exports.
            registry = service.registry
            e2e = registry.histogram("repro_service_request_seconds",
                                     labelnames=("tenant",))
            ttfb = registry.histogram("repro_service_ttfb_seconds",
                                      labelnames=("tenant",))
            for name in ("acme", "globex"):
                row = stats.tenant(name)
                assert row.admitted == 1 and row.completed == 1
                assert row.failed == 0
                latency = e2e.labels(tenant=name).summary()
                assert latency["count"] == 1 and latency["p50"] > 0.0
                assert latency["p99"] >= latency["p50"]
                assert ttfb.labels(tenant=name).summary()["p50"] > 0.0

            flat = service.stats()
            assert flat["requests"] == 2
            assert flat["pipeline_runs"] == 2

            # The same numbers flow out of the registry exports.
            series = parse_prometheus(service.registry.to_prometheus())
            assert series[("repro_service_requests_total", "")] == 2.0
            assert series[("repro_service_request_seconds_count",
                           'tenant="acme"')] == 1.0

    def test_disabled_observability_keeps_serving(self, toy_schema, tmp_path):
        config = RegenConfig(workers=1, max_workers=1, obs_enabled=False)
        with RegenerationService(toy_schema, store=str(tmp_path / "store"),
                                 config=config) as service:
            summary = service.submit(toy_ccs()).result()
            assert summary.total_rows() > 0
            stats = service.stats()
            assert stats["requests"] == 0  # documented: updates are no-ops
            assert stats["queue_depth"] == 0


# ---------------------------------------------------------------------- #
# logging
# ---------------------------------------------------------------------- #
class TestLogging:
    def test_service_lifecycle_emits_repro_log_events(
            self, toy_schema, tmp_path, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro"):
            config = RegenConfig(workers=1, max_workers=1)
            with RegenerationService(toy_schema,
                                     store=str(tmp_path / "store"),
                                     config=config) as service:
                service.submit(toy_ccs()).result()
        names = {record.name for record in caplog.records}
        assert any(name.startswith("repro.service") for name in names)
        assert all(name == "repro" or name.startswith("repro.")
                   for name in names)

    def test_json_handler_emits_parseable_records(self, log_stream):
        get_logger("obs.test").info("hello %s", "world", extra={"answer": 42})
        (line,) = log_stream.getvalue().splitlines()
        payload = json.loads(line)
        assert payload["message"] == "hello world"
        assert payload["logger"] == "repro.obs.test"
        assert payload["level"] == "INFO"
        assert payload["answer"] == 42

    def test_json_records_are_trace_correlated(self, log_stream, tracer):
        tracer.configure(sample=1.0)
        with span("logging") as current:
            get_logger("obs.test").info("inside")
        payload = json.loads(log_stream.getvalue().splitlines()[0])
        assert payload["trace_id"] == current.trace_id
        assert payload["span_id"] == current.span_id


# ---------------------------------------------------------------------- #
# config knobs
# ---------------------------------------------------------------------- #
class TestConfigKnobs:
    def test_trace_sample_validated(self):
        with pytest.raises(ConfigError):
            RegenConfig(trace_sample=1.5)
        with pytest.raises(ConfigError):
            RegenConfig(trace_sample=-0.1)

    def test_log_format_validated(self):
        with pytest.raises(ConfigError):
            RegenConfig(log_format="xml")

    def test_obs_knobs_do_not_namespace_fingerprints(self, toy_schema):
        from repro.api.session import Session

        plain = Session(toy_schema, config=RegenConfig())
        tuned = Session(toy_schema,
                        config=RegenConfig(obs_enabled=False))
        ccs = toy_ccs()
        assert plain.service.fingerprint(ccs) == tuned.service.fingerprint(ccs)


# ---------------------------------------------------------------------- #
# solver phase timings (the histogram that replaced the TimingLog facade)
# ---------------------------------------------------------------------- #
class TestTimingLogFacade:
    def test_solver_timings_share_the_service_registry(self, toy_schema,
                                                       tmp_path):
        config = RegenConfig(workers=1, max_workers=1)
        with RegenerationService(toy_schema, store=str(tmp_path / "store"),
                                 config=config) as service:
            service.submit(toy_ccs()).result()
            snapshot = service.registry.snapshot()
        phases = [key for key in snapshot
                  if key.startswith("repro_timing_seconds")]
        assert phases, "solver timings not re-homed onto the service registry"
