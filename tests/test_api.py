"""Tests of the unified ``repro.api`` surface.

Covers the acceptance bar of the facade redesign:

* ``Session``-driven end-to-end runs (extract → summarize → regenerate →
  verify) produce byte-identical summaries and AQP results to the legacy
  entry points, property-tested across batch sizes;
* ``RegenConfig`` consolidates the knobs and namespaces store fingerprints
  (result-affecting knobs split the store, performance knobs never do, and
  ``Hydra`` and ``Session`` given the same config collide on the same
  fingerprint);
* ``Session`` is a client of one ``RegenerationService``: ``serve()`` is
  that service, a storeless session serves repeats warm, and dropped
  sessions release their worker threads;
* ``max_pending`` backpressure rejects cold submissions with
  ``ServiceOverloadedError`` while warm/deduped requests stay admitted.
"""

from __future__ import annotations

import gc
import json
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DataSynthConfig,
    Executor,
    Hydra,
    HydraResult,
    Query,
    Workload,
    col,
    evaluate_on_database,
    evaluate_on_summary,
    materialize_database,
)
from repro.api import RegenConfig, Session
from repro.errors import ConfigError, ServiceError, ServiceOverloadedError
from repro.service.service import RegenerationService
from repro.service.store import SummaryStore
from repro.summary.relation_summary import DatabaseSummary, RelationSummary


# ---------------------------------------------------------------------- #
# module-scoped toy environment (hypothesis-safe)
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def env(request):
    """Schema, client database, workload and constraints of the toy scenario."""
    from repro.benchdata.datagen import generate_database
    from repro.hydra.client import extract_constraints
    from repro.predicates.interval import Interval
    from repro.schema.relation import Attribute, ForeignKey, Relation
    from repro.schema.schema import Schema

    schema = Schema([
        Relation("S", primary_key="S_pk", row_count=700,
                 attributes=[Attribute("A", Interval(0, 100)),
                             Attribute("B", Interval(0, 50))]),
        Relation("T", primary_key="T_pk", row_count=1500,
                 attributes=[Attribute("C", Interval(0, 10))]),
        Relation("R", primary_key="R_pk", row_count=80_000,
                 foreign_keys=[ForeignKey("S_fk", "S"),
                               ForeignKey("T_fk", "T")]),
    ], name="toy")
    database = generate_database(schema, seed=11)
    workload = Workload(name="api-toy", queries=[
        Query(query_id="q1", root="R", relations=("R", "S", "T"),
              filters={"S": col("A").between(20, 60),
                       "T": col("C").between(2, 3)}),
        Query(query_id="q2", root="R", relations=("R", "S")),
        Query(query_id="q3", root="S", relations=("S",),
              filters={"S": col("B").between(0, 25)}),
    ])
    constraints = extract_constraints(database, workload).constraints
    return schema, database, workload, constraints


def _relations_json(summary: DatabaseSummary) -> str:
    """Canonical JSON of the summary's data content (timings excluded)."""
    return json.dumps(summary.to_dict()["relations"], sort_keys=True)


def _cardinalities(plans):
    return [plan.operator_cardinalities() for plan in plans]


# ---------------------------------------------------------------------- #
# RegenConfig
# ---------------------------------------------------------------------- #
class TestRegenConfig:
    def test_frozen(self):
        config = RegenConfig()
        with pytest.raises(Exception):
            config.workers = 9  # type: ignore[misc]

    def test_replace_returns_new_config(self):
        config = RegenConfig()
        other = config.replace(workers=5)
        assert other.workers == 5 and config.workers == 2
        assert other is not config

    @pytest.mark.parametrize("knobs", [
        {"strategy": "diagonal"},
        {"executor_mode": "vectorized"},
        {"workers": 0},
        {"max_workers": 0},
        {"batch_size": 0},
        {"max_grid_variables": -1},
        {"max_pending": -1},
    ])
    def test_validation(self, knobs):
        with pytest.raises(ConfigError):
            RegenConfig(**knobs)

    def test_every_field_is_read_outside_the_config_module(self):
        """A knob nothing reads does nothing: every field must be read (as
        ``x.field`` or ``getattr(x, "field")``) somewhere under ``src/``
        besides ``api/config.py``.  The match is by name, so it catches a
        dead knob, not a knob read off the wrong object."""
        import ast
        import dataclasses
        from pathlib import Path

        package = Path(__file__).resolve().parent.parent / "src" / "repro"
        read = set()
        for path in package.rglob("*.py"):
            if path == package / "api" / "config.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id == "getattr" and len(node.args) > 1
                      and isinstance(node.args[1], ast.Constant)):
                    read.add(node.args[1].value)
        fields = {field.name for field in dataclasses.fields(RegenConfig)}
        assert fields - read == set()


# ---------------------------------------------------------------------- #
# Session end-to-end equivalence with the legacy entry points
# ---------------------------------------------------------------------- #
class TestSessionEquivalence:
    def test_hydra_summary_byte_identical(self, env):
        schema, _, _, constraints = env
        handle = Session(schema).summarize(constraints)
        legacy = Hydra(schema).build_summary(constraints)
        assert _relations_json(handle.summary) == _relations_json(legacy.summary)
        assert not handle.from_store
        assert handle.fingerprint == Hydra(schema).request_fingerprint(constraints)

    @settings(deadline=None, max_examples=6)
    @given(batch_size=st.sampled_from([1, 7, 65_536]))
    def test_aqp_results_match_legacy_paths(self, env, batch_size):
        """The acceptance property: session-driven execution produces the
        same AQP cardinalities as the legacy entry point, at any batch
        size."""
        schema, _, workload, constraints = env
        session = Session(schema)
        handle = session.summarize(constraints)
        database = session.regenerate(handle, batch_size=batch_size)
        plans = Executor(database).execute_workload(workload)

        legacy_db = materialize_database(
            Hydra(schema).build_summary(constraints).summary, schema)
        legacy_plans = Executor(legacy_db, mode="materialize").execute_workload(workload)
        assert _cardinalities(plans) == _cardinalities(legacy_plans)

    def test_extract_matches_legacy(self, env):
        schema, database, workload, constraints = env
        extracted = Session(schema).extract(database, workload)
        assert {str(cc) for cc in extracted} == {str(cc) for cc in constraints}

    def test_verify_matches_evaluate_on_database(self, env):
        schema, _, _, constraints = env
        session = Session(schema)
        handle = session.summarize(constraints)
        report = session.verify(handle)
        legacy = evaluate_on_database(
            constraints, materialize_database(handle.summary, schema))
        assert [r.actual for r in report.results] == [r.actual for r in legacy.results]
        # analytic (scale-free) verification agrees on the summary
        analytic = evaluate_on_summary(constraints, handle.summary, schema)
        assert [r.actual for r in analytic.results] == [r.actual for r in legacy.results]

    def test_verify_reads_the_handles_stored_summary(self, env):
        schema, _, _, constraints = env
        session = Session(schema)
        handle = session.summarize(constraints)
        runs = session.service.stats()["pipeline_runs"]
        session.verify(handle)
        session.verify(handle, scale=2.0)
        assert session.service.stats()["pipeline_runs"] == runs

    def test_verify_resolves_the_handle_by_its_fingerprint(self, env,
                                                             monkeypatch):
        schema, _, _, constraints = env
        session = Session(schema)
        handle = session.summarize(constraints)
        pipeline = session.service.pipeline
        calls = []
        fingerprint = pipeline.request_fingerprint
        monkeypatch.setattr(pipeline, "request_fingerprint",
                            lambda *args: calls.append(args) or fingerprint(*args))
        base_error = session.verify(handle).max_error()
        assert session.verify(handle, scale=2.0).max_error() \
            == pytest.approx(base_error, abs=1e-9)
        assert calls == []

    def test_verify_without_constraints_requires_provenance(self, env):
        schema, _, _, constraints = env
        session = Session(schema)
        handle = session.summarize(constraints)
        bare = session.load(handle.fingerprint)  # from the store: no provenance
        with pytest.raises(ServiceError):
            session.verify(bare)


# ---------------------------------------------------------------------- #
# scaled regeneration
# ---------------------------------------------------------------------- #
class TestScaledRegeneration:
    def test_verify_scales_the_default_constraints(self, env):
        """A scaled regeneration verifies against the correspondingly scaled
        cardinalities (Section 7.4 arithmetic), not the originals."""
        schema, _, _, constraints = env
        session = Session(schema)
        handle = session.summarize(constraints)
        base_error = session.verify(handle).max_error()
        scaled_error = session.verify(handle, scale=3.0).max_error()
        assert scaled_error == pytest.approx(base_error, abs=1e-9)
        # explicit constraints are evaluated as given: 3x the rows -> 2.0 error
        explicit = session.verify(handle, constraints, scale=3.0)
        assert explicit.max_error() == pytest.approx(2.0)

    def test_scale_multiplies_volume_and_keeps_integrity(self, env):
        schema, _, _, constraints = env
        session = Session(schema)
        handle = session.summarize(constraints)
        base = session.regenerate(handle).row_counts()
        scaled = session.regenerate(handle, scale=3.0)
        counts = scaled.row_counts()
        for relation, rows in base.items():
            assert counts[relation] == 3 * rows
        # foreign keys stay within the scaled parents
        r_table = scaled.table("R")
        assert r_table.column("S_fk").max() <= counts["S"]
        assert r_table.column("T_fk").max() <= counts["T"]
        assert r_table.column("S_fk").min() >= 1

    def test_downscale(self, env):
        schema, _, _, constraints = env
        session = Session(schema)
        handle = session.summarize(constraints)
        half = session.regenerate(handle, scale=0.5)
        base_total = handle.total_rows()
        # every summary row keeps >= 1 tuple, so the volume roughly halves
        assert 0 < half.total_rows() <= base_total
        r_table = half.table("R")
        assert r_table.column("S_fk").max() <= half.row_counts()["S"]

    def test_invalid_factor(self, env):
        schema, _, _, constraints = env
        session = Session(schema)
        handle = session.summarize(constraints)
        with pytest.raises(Exception):
            session.regenerate(handle, scale=0.0)


# ---------------------------------------------------------------------- #
# RegenConfig fingerprint integration with the store
# ---------------------------------------------------------------------- #
class TestFingerprintIntegration:
    def test_old_and_new_spellings_hit_the_same_fingerprint(self, env):
        schema, _, _, constraints = env
        legacy = Hydra(schema, RegenConfig(max_region_variables=2_000))
        session = Session(schema, config=RegenConfig(max_region_variables=2_000))
        assert legacy.request_fingerprint(constraints) \
            == session.service.fingerprint(constraints)

    def test_result_affecting_knobs_never_share_store_entries(self, env, tmp_path):
        schema, _, _, constraints = env
        store = SummaryStore(tmp_path / "store")
        region = Session(schema, config=RegenConfig(), store=store)
        grid = Session(schema, config=RegenConfig(strategy="grid"), store=store)
        first = region.summarize(constraints)
        second = grid.summarize(constraints)
        assert first.fingerprint != second.fingerprint
        assert not second.from_store
        assert len(store.summary_fingerprints()) == 2

    def test_performance_knobs_share_store_entries(self, env, tmp_path):
        schema, _, _, constraints = env
        store = SummaryStore(tmp_path / "store")
        one = Session(schema, config=RegenConfig(workers=1, batch_size=128),
                      store=store)
        two = Session(schema, config=RegenConfig(workers=4), store=store)
        first = one.summarize(constraints)
        second = two.summarize(constraints)
        assert first.fingerprint == second.fingerprint
        assert second.from_store  # warm: served without running the pipeline
        assert _relations_json(first.summary) == _relations_json(second.summary)
        assert len(store.summary_fingerprints()) == 1

    def test_load_rehydrates_stored_summary(self, env, tmp_path):
        schema, _, _, constraints = env
        session = Session(schema, store=tmp_path / "store")
        handle = session.summarize(constraints)
        loaded = session.load(handle.fingerprint)
        assert loaded.from_store
        assert _relations_json(loaded.summary) == _relations_json(handle.summary)
        with pytest.raises(ServiceError):
            session.load("0" * 64)


# ---------------------------------------------------------------------- #
# one pipeline surface: Session is a client of one RegenerationService
# ---------------------------------------------------------------------- #
def _constant_build(gate: "threading.Event | None" = None):
    """A stand-in for ``Hydra.build_summary``: a fixed one-relation summary,
    optionally blocking until ``gate`` is set (for backpressure tests)."""
    def build_summary(constraints, relations=None):
        if gate is not None:
            gate.wait(timeout=30)
        summary = DatabaseSummary()
        summary.relations["S"] = RelationSummary(
            relation="S", primary_key="S_pk", columns=("A", "B"),
            rows=[((1, 2), len(constraints))],
        )
        return HydraResult(summary=summary)
    return build_summary


class TestBackendRegistry:
    def test_service_refuses_a_legacy_engine_config(self, env):
        schema = env[0]
        with pytest.raises(ConfigError, match="RegenConfig"):
            RegenerationService(schema, None, DataSynthConfig())


class TestSessionService:
    def test_serve_is_the_session_service(self, env):
        schema, _, _, constraints = env
        session = Session(schema, config=RegenConfig(max_workers=1))
        assert session.serve() is session.service
        assert session.config is session.service.config
        assert session.store is session.service.store
        handle = session.summarize(constraints)
        assert session.service.stats()["pipeline_runs"] == 1
        assert handle.fingerprint == session.service.fingerprint(constraints)

    def test_storeless_session_serves_a_repeat_warm(self, env):
        schema, _, _, constraints = env
        session = Session(schema)
        assert not session.summarize(constraints).from_store
        assert session.serve().submit(constraints).warm is True
        assert session.summarize(constraints).from_store

    def test_dropped_sessions_release_their_worker_threads(self, env):
        schema, _, _, constraints = env
        config = RegenConfig(max_workers=2)
        start = threading.active_count()
        for _ in range(20):
            session = Session(schema, config=config)
            session.service.pipeline.build_summary = _constant_build()
            session.summarize(constraints)
        del session
        deadline = time.monotonic() + 5.0
        while True:
            gc.collect()
            if threading.active_count() <= start + config.max_workers \
                    or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert threading.active_count() <= start + config.max_workers


# ---------------------------------------------------------------------- #
# max_pending backpressure
# ---------------------------------------------------------------------- #
class TestBackpressure:
    def test_cold_submissions_rejected_above_max_pending(self, env,
                                                         monkeypatch):
        schema, _, _, constraints = env
        gate = threading.Event()
        other = constraints.scaled(2.0)  # different fingerprint
        config = RegenConfig(max_workers=1, max_pending=1)
        with RegenerationService(schema, config=config) as service:
            monkeypatch.setattr(service.pipeline, "build_summary",
                                _constant_build(gate))
            ticket = service.submit(constraints)      # occupies the only slot
            # identical request: in-flight dedup is always admitted
            again = service.submit(constraints)
            assert again.fingerprint == ticket.fingerprint
            with pytest.raises(ServiceOverloadedError):
                service.submit(other)                  # cold: over the limit
            stats = service.stats()
            assert stats["rejected_submissions"] == 1
            assert stats["inflight_dedup"] == 1
            gate.set()
            ticket.result(timeout=30)
            # capacity freed: the previously rejected request is admitted
            service.submit(other).result(timeout=30)
        assert service.stats()["rejected_submissions"] == 1

    def test_session_serve_threads_max_pending(self, env, monkeypatch):
        schema, _, _, constraints = env
        session = Session(schema, config=RegenConfig(max_pending=0))
        with session.serve() as service:
            assert service.config is session.config
            with pytest.raises(ServiceOverloadedError):
                service.submit(constraints)
        roomy = Session(schema, config=session.config.replace(max_pending=5))
        monkeypatch.setattr(roomy.service.pipeline, "build_summary",
                            _constant_build())
        with roomy.serve() as service:
            service.submit(constraints).result(timeout=30)

    def test_warm_requests_admitted_at_zero_capacity(self, env, tmp_path):
        schema, _, _, constraints = env
        store = tmp_path / "store"
        Session(schema, store=store).summarize(constraints)  # warm the store
        with RegenerationService(schema, store=store,
                                 config=RegenConfig(max_pending=0)) as service:
            ticket = service.submit(constraints)
            assert ticket.warm
            assert service.stats()["rejected_submissions"] == 0


# ---------------------------------------------------------------------- #
# unified CLI round trip: one process warms the store, the next serves it
# ---------------------------------------------------------------------- #
class TestUnifiedCLIRoundTrip:
    @staticmethod
    def run_cli(module: str, *argv: str):
        import os
        import subprocess
        import sys as _sys
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.run(
            [_sys.executable, "-m", module, *argv],
            capture_output=True, text=True, env=env, cwd=repo, timeout=300,
        )

    def test_unified_serve_round_trips_legacy_warm(self, tmp_path):
        # The id predates the removal of the `python -m repro.service warm`
        # alias; the store is now warmed by `python -m repro summarize`.
        store = str(tmp_path / "store")
        flags = ["--store", store, "--scale", "0.0002", "--queries", "5"]

        warm = self.run_cli("repro", "summarize", *flags)
        assert warm.returncode == 0, warm.stderr
        fingerprint = warm.stdout.splitlines()[0].split("=", 1)[1]

        serve = self.run_cli("repro", "serve", *flags, "--relation",
                             "store_sales", "--max-batches", "2",
                             "--require-warm")
        assert serve.returncode == 0, serve.stderr
        assert f"fingerprint={fingerprint}" in serve.stdout
        assert "warm=True" in serve.stdout
        assert "pipeline_runs=0" in serve.stdout
        assert "solver_components_solved=0" in serve.stdout

        stats = self.run_cli("repro", "stats", "--store", store, "--entries")
        assert stats.returncode == 0 and "summaries=1" in stats.stdout

    def test_unified_summarize_then_regenerate(self, tmp_path):
        store = str(tmp_path / "store")
        flags = ["--store", store, "--scale", "0.0002", "--queries", "5"]

        summarize = self.run_cli("repro", "summarize", *flags)
        assert summarize.returncode == 0, summarize.stderr
        assert "pipeline_runs=1" in summarize.stdout
        digests = [line.split("=", 1)[1] for line in summarize.stdout.splitlines()
                   if line.startswith("content_digest=")]
        assert len(digests) == 1 and len(digests[0]) == 64, summarize.stdout

        regen = self.run_cli("repro", "regenerate", *flags,
                             "--relation", "store_sales", "--max-batches", "1")
        assert regen.returncode == 0, regen.stderr
        assert "warm=True" in regen.stdout  # served from the warmed store
        assert "streamed relation=store_sales" in regen.stdout

    def test_gc_churn_evicts_lru_keeps_fresh(self, tmp_path):
        # The CI service-smoke churn phase, in-repo: warm two workloads,
        # cap the store to one entry, gc, and assert `serve --require-warm`
        # still exits 0 for the fresh entry but 3 for the evicted one.
        store = str(tmp_path / "store")
        base = ["--store", store, "--scale", "0.0002"]
        old = self.run_cli("repro", "summarize", *base, "--queries", "4",
                           "--tenant", "old-tenant")
        assert old.returncode == 0, old.stderr
        assert "tenant=old-tenant admitted=1" in old.stdout
        fresh = self.run_cli("repro", "summarize", *base, "--queries", "5")
        assert fresh.returncode == 0, fresh.stderr

        gc = self.run_cli("repro", "gc", "--store", store, "--max-entries", "1")
        assert gc.returncode == 0, gc.stderr
        assert "evicted=1" in gc.stdout and "summaries=1" in gc.stdout

        kept = self.run_cli("repro", "serve", *base, "--queries", "5",
                            "--relation", "store_sales", "--max-batches", "1",
                            "--require-warm")
        assert kept.returncode == 0, kept.stderr
        evicted = self.run_cli("repro", "serve", *base, "--queries", "4",
                               "--relation", "store_sales", "--max-batches",
                               "1", "--require-warm")
        assert evicted.returncode == 3
        assert "refusing" in evicted.stderr
