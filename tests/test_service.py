"""Tests for the regeneration service layer: fingerprints, the persistent
summary store, the concurrent serving front-end and the CLI.

Covers the acceptance criteria of the serving subsystem: a second process
(or a second solver instance) serves a previously-seen workload with zero LP
solver invocations, and concurrent identical cold requests trigger exactly
one pipeline run.
"""

from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.constraints.cc import CardinalityConstraint
from repro.api.config import RegenConfig
from repro.lp.model import LPSolution
from repro.constraints.workload import ConstraintSet
from repro.engine.database import Database
from repro.engine.table import Table
from repro.errors import ServiceError, SummaryStoreError
from repro.hydra.client import extract_constraints
from repro.hydra.pipeline import Hydra
from repro.predicates.dnf import DNFPredicate, col
from repro.predicates.interval import Interval
from repro.schema.relation import Attribute, Relation
from repro.schema.schema import Schema
from repro.service.fingerprint import (
    constraint_set_fingerprint,
    schema_fingerprint,
    workload_fingerprint,
)
from repro.service.service import RegenerationService
from repro.service.store import SummaryStore
from repro.summary.relation_summary import DatabaseSummary, RelationSummary
from repro.tuplegen.generator import TupleGenerator, dynamic_database
from repro.workload.query import Query, Workload


def toy_ccs(name: str = "toy-ccs") -> ConstraintSet:
    """A small, fast constraint set over the Figure 1 toy schema."""
    ccs = ConstraintSet(name=name)
    ccs.add(CardinalityConstraint("S", col("A").between(20, 60), 400))
    ccs.add(CardinalityConstraint("S", DNFPredicate.true(), 700))
    ccs.add(CardinalityConstraint("T", col("C") == 2, 900))
    ccs.add(CardinalityConstraint("T", DNFPredicate.true(), 1500))
    ccs.add(CardinalityConstraint("R", DNFPredicate.true(), 80_000))
    return ccs


def entry_path(root: Path, kind: str, key: str) -> Path:
    return root / kind / key[:2] / f"{key}.json.gz"


# ---------------------------------------------------------------------- #
# fingerprints
# ---------------------------------------------------------------------- #
class TestFingerprint:
    def test_constraint_order_does_not_matter(self, toy_schema):
        a = toy_ccs()
        b = ConstraintSet(reversed(list(a)), name="other-name")
        assert constraint_set_fingerprint(a) == constraint_set_fingerprint(b)
        assert workload_fingerprint(toy_schema, a) == workload_fingerprint(toy_schema, b)

    def test_column_declaration_order_does_not_matter(self):
        def build(attr_order, rel_order):
            attrs = {"A": Attribute("A", Interval(0, 100)), "B": Attribute("B", Interval(0, 50))}
            rels = {
                "S": Relation(name="S", primary_key="S_pk", row_count=10,
                              attributes=[attrs[a] for a in attr_order]),
                "T": Relation(name="T", primary_key="T_pk", row_count=20,
                              attributes=[Attribute("C", Interval(0, 10))]),
            }
            return Schema([rels[r] for r in rel_order], name="s")

        base = build("AB", "ST")
        assert schema_fingerprint(base) == schema_fingerprint(build("BA", "TS"))

    def test_conjunct_order_and_query_id_do_not_matter(self, toy_schema):
        p1 = (col("A") < 30).disjoin(col("B") >= 10)
        p2 = (col("B") >= 10).disjoin(col("A") < 30)
        a = ConstraintSet([CardinalityConstraint("S", p1, 5, query_id="q1")])
        b = ConstraintSet([CardinalityConstraint("S", p2, 5, query_id="q2")])
        assert workload_fingerprint(toy_schema, a) == workload_fingerprint(toy_schema, b)

    def test_semantic_changes_do_matter(self, toy_schema):
        base = toy_ccs()
        different_card = ConstraintSet(list(base)[:-1], name="x")
        different_card.add(CardinalityConstraint("R", DNFPredicate.true(), 80_001))
        assert workload_fingerprint(toy_schema, base) != \
            workload_fingerprint(toy_schema, different_card)
        # The regenerated-relation subset is part of the request identity.
        assert workload_fingerprint(toy_schema, base) != \
            workload_fingerprint(toy_schema, base, relations=["S"])


# ---------------------------------------------------------------------- #
# summary serialisation round-trip
# ---------------------------------------------------------------------- #
class TestSummaryRoundTrip:
    def test_relation_summary_json_roundtrip(self):
        summary = RelationSummary(
            relation="S", primary_key="S_pk", columns=("fk", "A"),
            rows=[((1, 20), 400), ((2, 60), 300)],
        )
        text = json.dumps(summary.to_dict())
        assert RelationSummary.from_dict(json.loads(text)) == summary

    def test_database_summary_json_roundtrip(self, toy_schema):
        result = Hydra(toy_schema).build_summary(toy_ccs())
        original = result.summary
        text = json.dumps(original.to_dict())
        restored = DatabaseSummary.from_dict(json.loads(text))
        assert restored.relations == original.relations
        assert restored.extra_tuples == original.extra_tuples
        assert restored.lp_variable_counts == original.lp_variable_counts
        assert restored.total_rows() == original.total_rows()


# ---------------------------------------------------------------------- #
# summary store
# ---------------------------------------------------------------------- #
class TestSummaryStore:
    def test_roundtrip_and_reopen(self, toy_schema, tmp_path):
        summary = Hydra(toy_schema).build_summary(toy_ccs()).summary
        store = SummaryStore(tmp_path / "store")
        store.put_summary("f" * 64, summary, meta={"schema": "toy"})
        assert store.store_bytes() > 0

        reopened = SummaryStore(tmp_path / "store")
        restored = reopened.get_summary("f" * 64)
        assert restored is not None
        assert restored.to_dict()["relations"] == summary.to_dict()["relations"]
        assert reopened.summary_fingerprints() == ["f" * 64]
        assert reopened.entries()[0]["schema"] == "toy"

    def test_memory_only_store(self, toy_schema):
        summary = Hydra(toy_schema).build_summary(toy_ccs()).summary
        store = SummaryStore(None)
        store.put_summary("a" * 64, summary)
        assert store.get_summary("a" * 64) is summary
        # A rootless store counts its entry files like any disk store: the
        # running counter matches a fresh scan of its directory.
        assert store.store_bytes() == \
            SummaryStore(store.root).counters()["store_bytes"] > 0
        assert store.get_summary("b" * 64) is None

    def test_memory_only_counters_report_components(self, toy_schema):
        # A rootless store counts both entry kinds, like a disk store.
        summary = Hydra(toy_schema).build_summary(toy_ccs()).summary
        store = SummaryStore(None)
        store.put_summary("a" * 64, summary)
        solution = LPSolution(values=np.array([1, 2, 3], dtype=np.int64),
                              feasible=True, method="test",
                              max_violation=0.0, solve_seconds=0.0)
        store.put_component("c" * 64, solution)
        counters = store.counters()
        assert counters["summaries"] == 1
        assert counters["components"] == 1
        assert counters["store_bytes"] > 0
        restored = store.get_component("c" * 64)
        assert restored is not None
        assert list(restored.values) == [1, 2, 3]

    def test_disk_counters_report_both_kinds(self, toy_schema, tmp_path):
        summary = Hydra(toy_schema).build_summary(toy_ccs()).summary
        store = SummaryStore(tmp_path / "store")
        store.put_summary("a" * 64, summary)
        solution = LPSolution(values=np.array([4, 5], dtype=np.int64),
                              feasible=True, method="test",
                              max_violation=0.0, solve_seconds=0.0)
        store.put_component("c" * 64, solution)
        counters = store.counters()
        assert counters["summaries"] == 1 and counters["components"] == 1
        # The running counters match an authoritative rescan exactly.
        assert counters["store_bytes"] == \
            SummaryStore(tmp_path / "store").counters()["store_bytes"]

    def test_put_twice_does_not_double_count(self, toy_schema, tmp_path):
        # Regression: overwriting an entry goes through os.replace; the
        # running byte counter must subtract the replaced file's size and
        # the entry counter must not grow.
        summary = Hydra(toy_schema).build_summary(toy_ccs()).summary
        store = SummaryStore(tmp_path / "store")
        store.put_summary("f" * 64, summary, meta={"pass": 1})
        first = store.counters()
        store.put_summary("f" * 64, summary, meta={"pass": 2})
        store.put_component("c" * 64, LPSolution(
            values=np.array([1], dtype=np.int64), feasible=True,
            method="test", max_violation=0.0, solve_seconds=0.0))
        store.put_component("c" * 64, LPSolution(
            values=np.array([1], dtype=np.int64), feasible=True,
            method="test", max_violation=0.0, solve_seconds=0.0))
        counters = store.counters()
        assert counters["summaries"] == first["summaries"] == 1
        assert counters["components"] == 1
        fresh = SummaryStore(tmp_path / "store").counters()
        assert counters["summaries"] == fresh["summaries"]
        assert counters["components"] == fresh["components"]
        assert counters["store_bytes"] == fresh["store_bytes"]

    def test_corrupted_entry_rejected_cleanly(self, toy_schema, tmp_path):
        summary = Hydra(toy_schema).build_summary(toy_ccs()).summary
        root = tmp_path / "store"
        fingerprint = "c" * 64
        SummaryStore(root).put_summary(fingerprint, summary)

        path = entry_path(root, "summaries", fingerprint)
        path.write_bytes(b"this is not gzip")
        fresh = SummaryStore(root)
        with pytest.raises(SummaryStoreError, match="corrupted or partially"):
            fresh.read_summary(fingerprint)
        # The serving path degrades to a miss and counts the corruption.
        assert fresh.get_summary(fingerprint) is None
        assert fresh.counters()["corrupt_entries"] == 1

    def test_partial_entry_rejected_cleanly(self, toy_schema, tmp_path):
        summary = Hydra(toy_schema).build_summary(toy_ccs()).summary
        root = tmp_path / "store"
        fingerprint = "d" * 64
        SummaryStore(root).put_summary(fingerprint, summary)

        path = entry_path(root, "summaries", fingerprint)
        path.write_bytes(path.read_bytes()[:10])  # truncated write
        with pytest.raises(SummaryStoreError):
            SummaryStore(root).read_summary(fingerprint)

    def test_wrong_payload_key_rejected(self, tmp_path):
        root = tmp_path / "store"
        SummaryStore(root)
        fingerprint = "e" * 64
        path = entry_path(root, "summaries", fingerprint)
        path.parent.mkdir(parents=True)
        path.write_bytes(gzip.compress(json.dumps(
            {"format": 1, "key": "mismatch", "summary": {}}
        ).encode()))
        with pytest.raises(SummaryStoreError, match="payload shape"):
            SummaryStore(root).read_summary(fingerprint)

    def test_unknown_format_version_rejected(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / "store.json").write_text(json.dumps({"format": 99}))
        with pytest.raises(SummaryStoreError, match="format 99"):
            SummaryStore(root)

    def test_missing_entry_raises_on_strict_read(self, tmp_path):
        with pytest.raises(SummaryStoreError, match="no summaries entry"):
            SummaryStore(tmp_path / "store").read_summary("0" * 64)


# ---------------------------------------------------------------------- #
# pipeline integration: warm builds skip all solves
# ---------------------------------------------------------------------- #
class TestPipelineStoreIntegration:
    def test_second_solver_instance_serves_with_zero_lp_solves(self, toy_schema, tmp_path):
        ccs = toy_ccs()
        first = Hydra(toy_schema, store=SummaryStore(tmp_path / "store"))
        cold = first.build_summary(ccs)
        assert cold.solver_stats["components_solved"] > 0
        assert cold.solver_stats["summary_store_hits"] == 0

        # Fresh Hydra + fresh store object over the same directory models a
        # second worker process mounting the shared store.
        second = Hydra(toy_schema, store=SummaryStore(tmp_path / "store"))
        warm = second.build_summary(ccs)
        assert second.solver.stats.components_solved == 0
        assert warm.solver_stats["summary_store_hits"] == 1
        assert warm.cache_counters()["store_bytes"] > 0
        assert warm.summary.to_dict() == cold.summary.to_dict()

    def test_store_isolates_differently_configured_pipelines(self, toy_schema, tmp_path):
        """A shared store never serves one configuration's summary to a
        differently configured pipeline.  The solver has one configuration,
        so a component solution is keyed by its ``(A, b)`` system alone and
        crosses over only where both builds formulate the same component."""
        ccs = toy_ccs()
        grid = Hydra(toy_schema, RegenConfig(strategy="grid"),
                     store=SummaryStore(tmp_path / "store"))
        grid_keys = set(grid.build_summary(ccs).summary.component_manifest())

        region = Hydra(toy_schema, RegenConfig(strategy="region"),
                       store=SummaryStore(tmp_path / "store"))
        assert region.request_fingerprint(ccs) != grid.request_fingerprint(ccs)
        result = region.build_summary(ccs)
        region_keys = set(result.summary.component_manifest())
        assert result.solver_stats["summary_store_hits"] == 0
        # The two strategies formulate different systems here, so the
        # component cache did not cross over either.
        assert region_keys.isdisjoint(grid_keys)
        assert result.solver_stats["cache_hits"] == 0
        assert region.solver.stats.components_solved == len(region_keys)

        # Same configuration in a fresh instance still shares everything.
        twin = Hydra(toy_schema, RegenConfig(strategy="region"),
                     store=SummaryStore(tmp_path / "store"))
        assert twin.build_summary(ccs).solver_stats["summary_store_hits"] == 1

    def test_component_cache_shared_across_processes(self, toy_schema, tmp_path):
        ccs = toy_ccs()
        first = Hydra(toy_schema, store=SummaryStore(tmp_path / "store"))
        first.build_summary(ccs)

        # A *different* workload fingerprint (extra regenerated relation set)
        # over the same constraints: the summary fast path misses, but every
        # LP component solution is served from the persisted component cache.
        second = Hydra(toy_schema, store=SummaryStore(tmp_path / "store"))
        result = second.build_summary(ccs, relations=["S", "T", "R"])
        assert result.solver_stats["summary_store_hits"] == 0
        assert second.solver.stats.components_solved == 0
        assert result.solver_stats["cache_hits"] > 0


# ---------------------------------------------------------------------- #
# regeneration service
# ---------------------------------------------------------------------- #
class TestRegenerationService:
    def test_warm_requests_never_touch_the_solver(self, toy_schema, tmp_path):
        ccs = toy_ccs()
        with RegenerationService(toy_schema, store=tmp_path / "store") as warmer:
            warmer.summarize(ccs)

        with RegenerationService(toy_schema, store=tmp_path / "store") as service:
            ticket = service.submit(ccs)
            assert ticket.warm and ticket.done()
            summary = ticket.result()
            assert summary.relation("R").total_rows() == 80_000
            rows = sum(b.num_rows for b in service.stream(ccs, "R", batch_size=9_000))
            assert rows == 80_000
            stats = service.stats()
            assert stats["pipeline_runs"] == 0
            assert stats["solver_components_solved"] == 0
            assert stats["hits"] == 2 and stats["misses"] == 0
            assert stats["store_bytes"] > 0

    def test_concurrent_identical_cold_requests_single_flight(self, toy_schema, tmp_path):
        service = RegenerationService(toy_schema, store=tmp_path / "store")
        inner = service.pipeline.build_summary

        def slow_build(*args, **kwargs):
            time.sleep(0.25)
            return inner(*args, **kwargs)

        service.pipeline.build_summary = slow_build  # type: ignore[method-assign]
        ccs = toy_ccs()
        barrier = threading.Barrier(6)
        summaries = []

        def request():
            barrier.wait()
            summaries.append(service.summarize(ccs, timeout=30.0))

        threads = [threading.Thread(target=request) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        stats = service.stats()
        assert stats["pipeline_runs"] == 1
        assert stats["misses"] == 1
        assert stats["inflight_dedup"] == 5
        assert len({id(s) for s in summaries}) == 1
        service.close()

    def test_concurrent_consumers_stream_disjoint_shards(self, toy_schema, tmp_path):
        ccs = toy_ccs()
        with RegenerationService(toy_schema, store=tmp_path / "store") as service:
            fingerprint = service.submit(ccs).fingerprint
            service.summarize(ccs)
            solves_after_warmup = service.stats()["solver_components_solved"]
            shard_rows = {}

            def consume(start, stop):
                rows = 0
                for batch in service.stream(fingerprint, "R", batch_size=7_000,
                                            start_row=start, stop_row=stop):
                    rows += batch.num_rows
                shard_rows[(start, stop)] = rows

            threads = [
                threading.Thread(target=consume, args=(1, 40_000)),
                threading.Thread(target=consume, args=(40_001, 80_000)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert shard_rows == {(1, 40_000): 40_000, (40_001, 80_000): 40_000}
            # Streaming is pure generation: no further LP solves.
            assert service.stats()["solver_components_solved"] == solves_after_warmup

    def test_unknown_fingerprint_is_store_only(self, toy_schema, tmp_path):
        with RegenerationService(toy_schema, store=tmp_path / "store") as service:
            with pytest.raises(ServiceError, match="no stored summary"):
                # Raises at the call site, not at first iteration.
                service.stream("9" * 64, "R")

    def test_build_errors_propagate_to_every_waiter(self, toy_schema, tmp_path):
        service = RegenerationService(toy_schema, store=tmp_path / "store")

        def failing_build(*args, **kwargs):
            raise RuntimeError("boom")

        service.pipeline.build_summary = failing_build  # type: ignore[method-assign]
        ticket = service.submit(toy_ccs())
        with pytest.raises(RuntimeError, match="boom"):
            ticket.result(timeout=10.0)
        service.close()


# ---------------------------------------------------------------------- #
# tuple generator shard handles
# ---------------------------------------------------------------------- #
class TestStreamRange:
    def test_shards_concatenate_to_full_stream(self, toy_schema):
        summary = Hydra(toy_schema).build_summary(toy_ccs()).summary
        generator = TupleGenerator(summary.relation("R"))
        full = generator.table_from_stream(batch_size=6_000)
        left = list(generator.stream_range(1, 30_000, batch_size=6_000))
        right = list(generator.stream_range(30_001, None, batch_size=6_000))
        stitched = Table.concat(left + right, name="R")
        assert stitched.num_rows == full.num_rows == 80_000
        pk = stitched.column("R_pk")
        assert pk[0] == 1 and pk[-1] == 80_000

    def test_out_of_bounds_shard_rejected(self, toy_schema):
        summary = Hydra(toy_schema).build_summary(toy_ccs()).summary
        generator = TupleGenerator(summary.relation("R"))
        from repro.errors import GenerationError

        with pytest.raises(GenerationError, match="out of bounds"):
            list(generator.stream_range(0, 10))
        with pytest.raises(GenerationError, match="out of bounds"):
            list(generator.stream_range(1, 80_001))


# ---------------------------------------------------------------------- #
# client row-count collection over lazy relations
# ---------------------------------------------------------------------- #
class TestClientRowCounts:
    def test_row_counts_do_not_materialise_streams(self, toy_schema):
        summary = Hydra(toy_schema).build_summary(toy_ccs()).summary
        database = dynamic_database(summary, toy_schema, batch_size=10_000)
        counts = database.row_counts()
        assert counts["R"] == 80_000 and counts["S"] == 700 and counts["T"] == 1500
        # Counting never cached a full table — and never even generated one:
        # dynamic_database declares the generators' totals at attach time.
        assert all(database.is_dynamic(rel) for rel in ("R", "S", "T"))

    def test_declared_stream_row_count_answers_without_generation(self, toy_schema):
        summary = Hydra(toy_schema).build_summary(toy_ccs()).summary
        database = Database(toy_schema, name="declared")
        pulls = {"n": 0}

        def factory():
            pulls["n"] += 1
            return TupleGenerator(summary.relation("R")).stream(batch_size=10_000)

        database.attach_stream("R", factory, row_count=80_000)
        assert database.row_count("R") == 80_000
        assert pulls["n"] == 0  # a declared count costs zero generation
        # Without a declared count the stream is consumed (but not cached).
        database.attach_stream("R", factory)
        assert database.row_count("R") == 80_000
        assert pulls["n"] == 1 and database.is_dynamic("R")

    def test_extract_constraints_covers_stream_attached_relations(self, toy_schema):
        summary = Hydra(toy_schema).build_summary(toy_ccs()).summary
        database = dynamic_database(summary, toy_schema, name="toy-lazy")
        workload = Workload(name="w", queries=[
            Query(query_id="q1", root="R", relations=("R", "S"),
                  filters={"S": col("A").between(20, 60)}),
        ])
        package = extract_constraints(database, workload)
        assert package.row_counts["R"] == 80_000
        assert package.row_counts["S"] == 700
        assert "T" not in package.row_counts  # not referenced by the workload


# ---------------------------------------------------------------------- #
# CLI: warm in one process, serve from a second process
# ---------------------------------------------------------------------- #
class TestServiceCLI:
    @staticmethod
    def run_cli(*argv: str) -> "subprocess.CompletedProcess[str]":
        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env, cwd=repo, timeout=300,
        )

    def test_second_process_serves_with_zero_pipeline_runs(self, tmp_path):
        store = str(tmp_path / "store")
        flags = ["--store", store, "--scale", "0.0002", "--queries", "5"]

        warm = self.run_cli("summarize", *flags)
        assert warm.returncode == 0, warm.stderr
        assert "pipeline_runs=1" in warm.stdout

        serve = self.run_cli("serve", *flags, "--relation", "store_sales",
                             "--max-batches", "2", "--require-warm")
        assert serve.returncode == 0, serve.stderr
        assert "warm=True" in serve.stdout
        assert "pipeline_runs=0" in serve.stdout
        assert "solver_components_solved=0" in serve.stdout

        inspect = self.run_cli("stats", "--store", store, "--entries")
        assert inspect.returncode == 0 and "summaries=1" in inspect.stdout

    def test_serve_refuses_cold_request_when_warm_required(self, tmp_path):
        result = self.run_cli(
            "serve", "--store", str(tmp_path / "empty"), "--scale", "0.0002",
            "--queries", "5", "--relation", "store_sales", "--require-warm",
        )
        assert result.returncode == 3
        assert "refusing" in result.stderr


# ---------------------------------------------------------------------- #
# regenerate-then-verify: pipelined execution over regenerated databases
# ---------------------------------------------------------------------- #
class TestRegenerateThenVerify:
    def _workload(self) -> Workload:
        return Workload(name="verify", queries=[
            Query(query_id="q1", root="R", relations=("R", "S", "T"),
                  filters={"S": col("A").between(20, 60)}),
            Query(query_id="q2", root="R", relations=("R", "S")),
        ])

    def test_execute_workload_over_regenerated_database(self, toy_schema,
                                                        monkeypatch):
        # Every relation streams through the executor as run batches:
        # a one-shot materialisation anywhere is a test failure.
        def forbidden(self):
            raise AssertionError("serving path called materialize()")

        with RegenerationService(toy_schema) as service:
            service.summarize(toy_ccs())  # warm the store first
            monkeypatch.setattr(TupleGenerator, "materialize", forbidden)
            plans = service.execute_workload(toy_ccs(), self._workload(),
                                             batch_size=10_000)
            assert [p.query_id for p in plans] == ["q1", "q2"]
            assert plans[1].output_cardinality() == 80_000
            stats = service.stats()
            assert stats["workloads_executed"] == 1
            assert stats["executor_batches"] > 0
            assert 0 < stats["executor_peak_batch_rows"] <= 10_000

    def test_verify_defaults_to_request_constraints(self, toy_schema):
        with RegenerationService(toy_schema) as service:
            report = service.verify(toy_ccs())
            assert len(report.results) == len(list(toy_ccs()))
            assert report.max_error() < 0.02
            stats = service.stats()
            assert stats["verifications"] == 1
            assert stats["executor_peak_batch_rows"] > 0

    def test_verify_by_fingerprint_requires_constraints(self, toy_schema):
        with RegenerationService(toy_schema) as service:
            ticket = service.submit(toy_ccs())
            ticket.result()
            with pytest.raises(ServiceError, match="explicit constraint set"):
                service.verify(ticket.fingerprint)
            # ... but works once the constraints are supplied.
            report = service.verify(ticket.fingerprint, constraints=toy_ccs())
            assert report.max_error() < 0.02

    def test_reads_run_the_configured_executor_mode(self, toy_schema,
                                                    monkeypatch):
        # Regression: verify and execute_workload hard-coded the pipelined
        # executor whatever the config's executor_mode said.
        from repro.service import service as service_module

        modes = []
        real_executor = service_module.Executor

        def recording_executor(database, mode):
            modes.append(mode)
            return real_executor(database, mode=mode)

        monkeypatch.setattr(service_module, "Executor", recording_executor)
        config = RegenConfig(executor_mode="materialize")
        with RegenerationService(toy_schema, config=config) as service:
            assert service.verify(toy_ccs()).max_error() < 0.02
            service.execute_workload(toy_ccs(), self._workload())
            service.verify(toy_ccs(), mode="pipelined")
        assert modes == ["materialize", "materialize", "pipelined"]

    def test_database_is_lazy(self, toy_schema):
        with RegenerationService(toy_schema) as service:
            database = service.database(toy_ccs(), batch_size=10_000)
            assert all(database.is_dynamic(rel) for rel in ("R", "S", "T"))
            assert database.row_count("R") == 80_000


# ---------------------------------------------------------------------- #
# scale: a view of the stored summary on every service read
# ---------------------------------------------------------------------- #
class TestScaledServiceReads:
    def test_verify_is_scale_independent(self, toy_schema):
        with RegenerationService(toy_schema) as service:
            base = service.verify(toy_ccs())
            scaled = service.verify(toy_ccs(), scale=10**6)
        assert [r.expected for r in scaled.results] \
            == [10**6 * r.expected for r in base.results]
        assert [r.actual for r in scaled.results] \
            == [10**6 * r.actual for r in base.results]
        assert list(scaled.errors()) == list(base.errors())

    def test_total_rows_and_stream_scale_the_volume(self, toy_schema):
        with RegenerationService(toy_schema) as service:
            ticket = service.submit(toy_ccs())
            ticket.result()
            fingerprint = ticket.fingerprint
            for relation in ("R", "S", "T"):
                rows = service.total_rows(fingerprint, relation)
                scaled = service.total_rows(fingerprint, relation, scale=3)
                assert scaled == 3 * rows
                streamed = service.stream(fingerprint, relation,
                                          batch_size=50_000, scale=3)
                assert sum(batch.num_rows for batch in streamed) == scaled
            # The stored summary is untouched: scale is never stored.
            assert service.store.get_summary(fingerprint).relation("R") \
                .total_rows() == service.total_rows(fingerprint, "R")

    def test_gc_drops_scaled_generators_with_their_fingerprint(
            self, toy_schema, tmp_path):
        store = SummaryStore(tmp_path / "store")
        with RegenerationService(toy_schema, store=store) as service:
            ticket = service.submit(toy_ccs())
            ticket.result()
            service.total_rows(ticket.fingerprint, "R", scale=3)
            service.database(ticket.fingerprint, scale=2)
            assert {key[2] for key in service._generators} == {2, 3}
            assert store.compact(max_entries=0)["evicted"] == 1
            service.gc()
            assert service._generators == {}

    def test_invalid_scale_is_a_service_error(self, toy_schema):
        with RegenerationService(toy_schema) as service:
            ticket = service.submit(toy_ccs())
            ticket.result()
            fingerprint = ticket.fingerprint
            for scale in (0, -1, float("nan"), float("inf")):
                reads = (
                    lambda: service.verify(toy_ccs(), scale=scale),
                    lambda: service.database(fingerprint, scale=scale),
                    lambda: service.total_rows(fingerprint, "R", scale=scale),
                    lambda: service.stream(fingerprint, "R", scale=scale),
                )
                for read in reads:
                    with pytest.raises(ServiceError, match="scale"):
                        read()

    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
    def test_cli_rejects_invalid_scale_without_traceback(self, scale):
        result = TestServiceCLI.run_cli(
            "verify", "--scale", "0.0002", "--queries", "2",
            f"--scale-factor={scale}")
        assert result.returncode != 0
        assert "Traceback" not in result.stderr
        assert "scale must be a positive finite number" in result.stderr

    @pytest.mark.parametrize("command", [["verify"], ["regenerate"],
                                         ["regenerate", "--fingerprint", "f" * 64]])
    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
    def test_cli_checks_scale_before_building(self, command, scale, monkeypatch, capsys):
        from repro import cli

        def build(*args):
            raise AssertionError("built before the scale factor was checked")

        monkeypatch.setattr(cli, "_benchmark_environment", build)
        monkeypatch.setattr(cli, "_session", build)
        assert cli.main(command + [f"--scale-factor={scale}"]) == 2
        assert (f"{command[0]}: scale must be a positive finite number"
                in capsys.readouterr().err)
