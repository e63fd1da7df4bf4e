"""Incremental re-summarization suite (workload epochs).

Covers the acceptance bar of the epoch refactor:

* **Drift property (hypothesis)** — random drift edits (add / remove /
  modify constraints) on seeded TPC-DS-like and JOB-like workloads:
  ``resummarize`` against the warm base epoch produces a summary whose
  content (``content_dict`` — everything but wall-clock timings) is
  byte-identical to a cold ``summarize`` of the drifted workload, and the
  report's reused components are exactly the intersection of the two
  component manifests;
* **Provenance** — ``DatabaseSummary.component_keys`` survives store
  round-trips and ``scale_summary`` (the regression the bugfix satellite
  guards);
* **Store lineage** — ``link_parent`` / ``parent_fingerprint`` /
  ``list_lineage`` semantics, including missing ancestors and defensive
  cycle breaking, plus GC keeping the lineage chain of pinned epochs alive;
* **Service** — ``resummarize`` reuses cached component solutions with zero
  LP solves (asserted via the solver metrics), maintains the
  ``repro_service_components_{reused,resolved}_total`` counters, records a
  ``service.resummarize`` span, and ``diff`` reports per-component reuse;
* **API and HTTP** — the same epochs through ``session.service`` and
  ``POST /v1/resummarize`` with the 404 (unknown base) / 409
  (require_warm) / 400 (bad wire body) status contracts.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RegenConfig, Session
from repro.benchdata.datagen import generate_database
from repro.benchdata.job import job_schema, job_workload
from repro.benchdata.tpcds import simple_workload, tpcds_schema
from repro.codd.scaling import scale_summary
from repro.constraints.cc import CardinalityConstraint
from repro.constraints.workload import ConstraintSet
from repro.errors import ServiceError, SummaryStoreError
from repro.hydra import pipeline as pipeline_module
from repro.hydra.client import extract_constraints
from repro.obs.trace import get_tracer
from repro.predicates.dnf import DNFPredicate, col
from repro.predicates.interval import Interval
from repro.schema.relation import Attribute, ForeignKey, Relation
from repro.schema.schema import Schema
from repro.server import RegenerationServer, constraint_set_to_wire
from repro.service.fingerprint import ManifestDiff, manifest_diff
from repro.service.service import RegenerationService
from repro.service.store import SummaryStore
from repro.summary.relation_summary import DatabaseSummary, RelationSummary


# ---------------------------------------------------------------------- #
# toy scenario helpers (module-scoped fixtures cannot use the
# function-scoped conftest fixtures)
# ---------------------------------------------------------------------- #
def make_toy_schema() -> Schema:
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


def toy_drifted(name: str = "toy-drift") -> ConstraintSet:
    """The toy workload after drift: one new CC on S, T's filter retuned."""
    ccs = ConstraintSet(name=name)
    ccs.add(CardinalityConstraint("S", col("A").between(20, 60), 400))
    ccs.add(CardinalityConstraint("S", col("B").between(0, 25), 350))
    ccs.add(CardinalityConstraint("S", DNFPredicate.true(), 700))
    ccs.add(CardinalityConstraint("T", col("C") == 2, 900))
    ccs.add(CardinalityConstraint("T", DNFPredicate.true(), 1500))
    ccs.add(CardinalityConstraint("R", DNFPredicate.true(), 80_000))
    return ccs


# ---------------------------------------------------------------------- #
# drift environments (hypothesis-safe: module-scoped, never mutated)
# ---------------------------------------------------------------------- #
def _drift_env(schema, database, base_workload, extra_workload):
    base = extract_constraints(database, base_workload).constraints
    extra = extract_constraints(database, extra_workload).constraints
    # Query-derived CCs of the extra workload, grouped per query: the "add"
    # edits splice whole queries in, like a real workload gaining queries.
    extra_groups = {}
    for cc in extra.constraints:
        if cc.query_id:
            extra_groups.setdefault(cc.query_id, []).append(cc)
    return SimpleNamespace(schema=schema, base=base,
                           extra_groups=sorted(extra_groups.values(),
                                               key=lambda g: g[0].query_id),
                           config=RegenConfig(workers=2))


@pytest.fixture(scope="module")
def tpcds_drift_env():
    schema = tpcds_schema(scale_factor=0.0002)
    database = generate_database(schema, seed=3)
    return _drift_env(schema, database,
                      simple_workload(schema, num_queries=6, seed=7),
                      simple_workload(schema, num_queries=4, seed=11))


@pytest.fixture(scope="module")
def job_drift_env():
    schema = job_schema(scale_factor=0.001)
    database = generate_database(schema, seed=19)
    return _drift_env(schema, database,
                      job_workload(schema, num_queries=5, seed=23),
                      job_workload(schema, num_queries=3, seed=29))


@pytest.fixture(scope="module")
def tpcds_drift_service(tpcds_drift_env, tmp_path_factory):
    store = str(tmp_path_factory.mktemp("tpcds-epochs"))
    service = RegenerationService(tpcds_drift_env.schema, store=store,
                                  config=tpcds_drift_env.config)
    service.summarize(tpcds_drift_env.base, timeout=300)
    yield service
    service.close()


@pytest.fixture(scope="module")
def job_drift_service(job_drift_env, tmp_path_factory):
    store = str(tmp_path_factory.mktemp("job-epochs"))
    service = RegenerationService(job_drift_env.schema, store=store,
                                  config=job_drift_env.config)
    service.summarize(job_drift_env.base, timeout=300)
    yield service
    service.close()


def apply_drift(env, draw) -> ConstraintSet:
    """Draw a random drift edit script and apply it to the base workload.

    Edits mirror real workload churn: whole queries arrive (add), queries
    are dropped (remove), and observed cardinalities move (modify).  The
    relation-inventory CCs (``query_id is None``) always survive, like a
    schema whose tables do not come and go.
    """
    ccs = list(env.base.constraints)
    removable = [i for i, cc in enumerate(ccs) if cc.query_id]
    to_remove = draw(st.sets(st.sampled_from(removable), max_size=2)) \
        if removable else set()
    bumpable = [i for i in removable if i not in to_remove]
    bumps = draw(st.dictionaries(st.sampled_from(bumpable),
                                 st.integers(1, 3), max_size=2)) \
        if bumpable else {}
    num_add = draw(st.integers(0, len(env.extra_groups)))
    drifted = [
        replace(cc, cardinality=cc.cardinality + bumps[i])
        if i in bumps else cc
        for i, cc in enumerate(ccs) if i not in to_remove
    ]
    for group in env.extra_groups[:num_add]:
        drifted.extend(group)
    return ConstraintSet(drifted, name="drifted")


# ---------------------------------------------------------------------- #
# the drift property
# ---------------------------------------------------------------------- #
class TestDriftProperty:
    """resummarize == cold summarize, component bookkeeping exact."""

    def check(self, env, service, draw):
        drifted = apply_drift(env, draw)
        base_fingerprint = service.fingerprint(env.base)
        base_manifest = set(
            service.store.get_summary(base_fingerprint).component_manifest())
        report = service.resummarize(base_fingerprint, drifted, timeout=300)

        # Byte-identical content to a cold build of the drifted workload
        # (a storeless session shares no cache with the service).
        cold = Session(env.schema, config=env.config).summarize(drifted)
        assert report.summary.content_dict() == cold.summary.content_dict()
        assert report.summary.content_digest() == cold.summary.content_digest()

        # The reuse report is exactly the manifest intersection/differences.
        drift_manifest = set(service.component_manifest(drifted))
        assert set(report.reused_components) == base_manifest & drift_manifest
        assert set(report.solved_components) == drift_manifest - base_manifest
        assert set(report.retired_components) == base_manifest - drift_manifest
        assert report.parent_fingerprint == base_fingerprint

        # The new epoch is linked to its parent (identity drift excepted).
        if report.fingerprint != base_fingerprint:
            chain = service.store.list_lineage(report.fingerprint)
            assert chain[1]["fingerprint"] == base_fingerprint

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_tpcds_drift(self, tpcds_drift_env, tpcds_drift_service, data):
        self.check(tpcds_drift_env, tpcds_drift_service, data.draw)

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_job_drift(self, job_drift_env, job_drift_service, data):
        self.check(job_drift_env, job_drift_service, data.draw)


# ---------------------------------------------------------------------- #
# provenance plumbing
# ---------------------------------------------------------------------- #
class TestProvenance:
    def test_component_keys_round_trip_serialisation(self):
        summary = DatabaseSummary(
            relations={"S": RelationSummary("S", "S_pk", ("A",),
                                            [((1,), 10)])},
            component_keys={"S": ["k2", "k1"], "T": []},
        )
        clone = DatabaseSummary.from_dict(
            json.loads(json.dumps(summary.to_dict())))
        assert clone.component_keys == {"S": ["k2", "k1"], "T": []}
        assert clone.component_manifest() == ["k1", "k2"]

    def test_content_dict_ignores_timings_only(self):
        summary = DatabaseSummary(component_keys={"S": ["k"]},
                                  timings={"total": 1.5})
        other = DatabaseSummary(component_keys={"S": ["k"]},
                                timings={"total": 9.9})
        assert summary.content_dict() == other.content_dict()
        assert summary.content_digest() == other.content_digest()
        changed = DatabaseSummary(component_keys={"S": ["other"]},
                                  timings={"total": 1.5})
        assert summary.content_digest() != changed.content_digest()

    def test_scale_summary_preserves_component_provenance(self):
        """Regression: scaling used to drop the provenance fields."""
        schema = make_toy_schema()
        summary = DatabaseSummary(
            relations={
                "S": RelationSummary("S", "S_pk", ("A", "B"),
                                     [((5, 1), 100), ((9, 2), 50)]),
            },
            extra_tuples={"S": 3},
            lp_variable_counts={"S": 7},
            timings={"total": 0.5},
            component_keys={"S": ["ck-a", "ck-b"]},
        )
        scaled = scale_summary(summary, schema, 2.0)
        assert scaled.component_keys == {"S": ["ck-a", "ck-b"]}
        assert scaled.extra_tuples == {"S": 3}
        assert scaled.lp_variable_counts == {"S": 7}
        assert scaled.component_manifest() == summary.component_manifest()
        # Deep copy: mutating the scaled provenance leaves the original be.
        scaled.component_keys["S"].append("ck-c")
        assert summary.component_keys["S"] == ["ck-a", "ck-b"]


# ---------------------------------------------------------------------- #
# manifest diffs
# ---------------------------------------------------------------------- #
class TestManifest:
    def test_manifest_diff_partitions_the_union(self):
        diff = manifest_diff(["a", "b", "c"], ["b", "c", "d"])
        assert diff == ManifestDiff(reused=["b", "c"], added=["d"],
                                    retired=["a"])
        assert diff.total == 3


# ---------------------------------------------------------------------- #
# store lineage and GC
# ---------------------------------------------------------------------- #
class TestStoreLineage:
    def put(self, store, fingerprint, **meta):
        summary = DatabaseSummary(
            relations={"S": RelationSummary("S", "S_pk", ("A",),
                                            [((1,), 5)])},
            component_keys={"S": [f"key-{fingerprint}"]},
        )
        store.put_summary(fingerprint, summary, meta=meta or None)
        return summary

    def test_link_parent_records_walkable_lineage(self, tmp_path):
        store = SummaryStore(tmp_path / "store")
        self.put(store, "epoch-a")
        self.put(store, "epoch-b")
        self.put(store, "epoch-c")
        store.link_parent("epoch-b", "epoch-a")
        store.link_parent("epoch-c", "epoch-b")
        assert store.parent_fingerprint("epoch-c") == "epoch-b"
        assert store.parent_fingerprint("epoch-a") is None
        chain = store.list_lineage("epoch-c")
        assert [link["fingerprint"] for link in chain] == \
            ["epoch-c", "epoch-b", "epoch-a"]
        assert all(link["present"] for link in chain)

    def test_link_survives_store_reopen(self, tmp_path):
        store = SummaryStore(tmp_path / "store")
        self.put(store, "parent")
        self.put(store, "child")
        store.link_parent("child", "parent")
        reopened = SummaryStore(tmp_path / "store")
        assert reopened.parent_fingerprint("child") == "parent"

    def test_link_parent_requires_a_stored_child(self):
        store = SummaryStore()
        with pytest.raises(SummaryStoreError):
            store.link_parent("ghost", "parent")

    def test_lineage_reports_missing_ancestors(self):
        store = SummaryStore()
        self.put(store, "child")
        store.link_parent("child", "evicted-parent")
        chain = store.list_lineage("child")
        assert chain[0]["present"] is True
        assert chain[1] == {"fingerprint": "evicted-parent", "present": False}

    def test_lineage_breaks_cycles(self):
        store = SummaryStore()
        self.put(store, "a")
        self.put(store, "b")
        store.link_parent("a", "b")
        store.link_parent("b", "a")
        chain = store.list_lineage("a")
        assert [link["fingerprint"] for link in chain] == ["a", "b"]

    def test_gc_keeps_lineage_of_pinned_epochs(self, tmp_path):
        store = SummaryStore(tmp_path / "store")
        self.put(store, "grandparent")
        self.put(store, "parent")
        self.put(store, "live")
        self.put(store, "unrelated")
        store.link_parent("parent", "grandparent")
        store.link_parent("live", "parent")
        store.pin("live")
        try:
            store.compact(max_entries=1)
            kept = set(store.summary_fingerprints())
            # The live epoch's whole chain survives; the unrelated entry is
            # the only eviction candidate.
            assert {"live", "parent", "grandparent"} <= kept
            assert "unrelated" not in kept
        finally:
            store.unpin("live")
        # Unpinned, the chain ages out like any other entries.
        store.compact(max_entries=1)
        assert len(store.summary_fingerprints()) <= 1


# ---------------------------------------------------------------------- #
# service resummarize / diff
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def toy_store(tmp_path_factory):
    """A store warmed with the toy base epoch by a throwaway service."""
    schema = make_toy_schema()
    store = str(tmp_path_factory.mktemp("toy-epochs"))
    with RegenerationService(schema, store=store) as builder:
        builder.summarize(toy_ccs(), timeout=300)
        base_fingerprint = builder.fingerprint(toy_ccs())
    return SimpleNamespace(schema=schema, store=store,
                           base_fingerprint=base_fingerprint)


def count_formulations(monkeypatch):
    """Record the relation of every view LP the pipeline formulates."""
    formulated = []
    real = pipeline_module.formulate_view_lp

    def counting(task, **knobs):
        formulated.append(task.relation)
        return real(task, **knobs)

    monkeypatch.setattr(pipeline_module, "formulate_view_lp", counting)
    return formulated


class TestServiceResummarize:
    def test_reuses_cached_solutions_and_counts_components(self, toy_store):
        with RegenerationService(toy_store.schema,
                                 store=toy_store.store) as service:
            before = service.stats()
            report = service.resummarize(toy_store.base_fingerprint,
                                         toy_drifted(), timeout=300)
            after = service.stats()

            assert not report.warm
            assert report.fingerprint != toy_store.base_fingerprint
            assert len(report.reused_components) > 0
            # Unchanged components never reach the solver: the only solves
            # are (at most) the added components, and the reused ones are
            # solution-cache hits.
            solved = after["solver_components_solved"] \
                - before["solver_components_solved"]
            assert solved <= len(report.solved_components)
            hits = after["solver_cache_hits"] - before["solver_cache_hits"]
            assert hits >= len(report.reused_components)
            # The service counters mirror the report.
            assert after["components_reused"] - before["components_reused"] \
                == len(report.reused_components)
            assert after["components_resolved"] \
                - before["components_resolved"] \
                == len(report.solved_components)
            # Same content as a cold build of the drifted workload.
            cold = Session(toy_store.schema).summarize(toy_drifted())
            assert report.summary.content_digest() \
                == cold.summary.content_digest()

    def test_warm_epoch_counts_full_reuse_and_zero_solves(self, toy_store):
        with RegenerationService(toy_store.schema,
                                 store=toy_store.store) as service:
            first = service.resummarize(toy_store.base_fingerprint,
                                        toy_drifted(), timeout=300)
            before = service.stats()
            again = service.resummarize(toy_store.base_fingerprint,
                                        toy_drifted(), timeout=300)
            after = service.stats()
            assert again.warm
            assert again.fingerprint == first.fingerprint
            assert after["components_reused"] - before["components_reused"] \
                == again.total_components
            assert after["components_resolved"] \
                == before["components_resolved"]
            assert after["solver_components_solved"] \
                == before["solver_components_solved"]

    def test_warm_report_lists_every_component_reused_none_solved(
            self, toy_store):
        # Regression: a drifted epoch already in the store ran nothing, but
        # the report listed the manifest diff's added components as solved
        # while the counters (rightly) moved by zero solves.
        with RegenerationService(toy_store.schema,
                                 store=toy_store.store) as service:
            first = service.resummarize(toy_store.base_fingerprint,
                                        toy_drifted(), timeout=300)
            again = service.resummarize(toy_store.base_fingerprint,
                                        toy_drifted(), timeout=300)
        assert again.warm
        assert again.solved_components == ()
        assert set(again.reused_components) == \
            set(first.reused_components) | set(first.solved_components)
        assert again.total_components == first.total_components
        assert again.retired_components == first.retired_components

    def test_cold_drift_formulates_each_view_lp_once(self, tmp_path,
                                                     monkeypatch):
        schema = make_toy_schema()
        with RegenerationService(schema, store=str(tmp_path)) as service:
            service.summarize(toy_ccs(), timeout=300)
            formulated = count_formulations(monkeypatch)
            report = service.resummarize(service.fingerprint(toy_ccs()),
                                         toy_drifted(), timeout=300)
        assert not report.warm
        assert sorted(formulated) == sorted(set(formulated))
        assert set(formulated) == {
            relation for relation, variables
            in report.summary.lp_variable_counts.items() if variables}

    def test_drift_formulates_the_changed_view_first(self, tmp_path,
                                                     monkeypatch):
        # Its new components then solve while the unchanged views are
        # formulated, so a drift costs the same whichever view it hits.
        drifted = ConstraintSet(name="toy-drift-t")
        drifted.add(CardinalityConstraint("S", col("A").between(20, 60), 400))
        drifted.add(CardinalityConstraint("S", DNFPredicate.true(), 700))
        drifted.add(CardinalityConstraint("T", col("C") == 2, 950))
        drifted.add(CardinalityConstraint("T", DNFPredicate.true(), 1500))
        drifted.add(CardinalityConstraint("R", DNFPredicate.true(), 80_000))
        with RegenerationService(make_toy_schema(),
                                 store=str(tmp_path)) as service:
            formulated = count_formulations(monkeypatch)
            service.summarize(toy_ccs(), timeout=300)
            assert formulated == ["S", "T"]
            del formulated[:]
            service.resummarize(service.fingerprint(toy_ccs()), drifted,
                                timeout=300)
        assert formulated == ["T", "S"]

    def test_warm_drift_formulates_nothing(self, toy_store, monkeypatch):
        with RegenerationService(toy_store.schema,
                                 store=toy_store.store) as service:
            service.resummarize(toy_store.base_fingerprint, toy_drifted(),
                                timeout=300)
            formulated = count_formulations(monkeypatch)
            again = service.resummarize(toy_store.base_fingerprint,
                                        toy_drifted(), timeout=300)
        assert again.warm
        assert formulated == []
        assert again.reused_components == tuple(
            again.summary.component_manifest())
        assert again.solved_components == ()

    def test_missing_base_raises(self, toy_store):
        with RegenerationService(toy_store.schema,
                                 store=toy_store.store) as service:
            with pytest.raises(ServiceError):
                service.resummarize("0" * 64, toy_drifted())

    def test_diff_matches_report_and_lineage_links_parent(self, toy_store):
        with RegenerationService(toy_store.schema,
                                 store=toy_store.store) as service:
            report = service.resummarize(toy_store.base_fingerprint,
                                         toy_drifted(), timeout=300)
            diff = service.diff(toy_store.base_fingerprint,
                                report.fingerprint)
            if report.warm:  # an earlier test already stored this epoch
                assert report.reused_components \
                    == tuple(sorted(diff.reused + diff.added))
                assert report.solved_components == ()
            else:
                assert tuple(diff.reused) == report.reused_components
                assert tuple(diff.added) == report.solved_components
            assert tuple(diff.retired) == report.retired_components
            chain = service.store.list_lineage(report.fingerprint)
            assert chain[1]["fingerprint"] == toy_store.base_fingerprint
            with pytest.raises(ServiceError):
                service.diff(toy_store.base_fingerprint, "f" * 64)

    def test_counters_and_span_are_observable(self, toy_store):
        tracer = get_tracer()
        previous = tracer.sample
        tracer.clear()
        tracer.configure(sample=1.0)
        try:
            with RegenerationService(toy_store.schema,
                                     store=toy_store.store) as service:
                service.resummarize(toy_store.base_fingerprint,
                                    toy_drifted(), timeout=300)
                text = service.registry.to_prometheus()
                assert "repro_service_components_reused_total" in text
                assert "repro_service_components_resolved_total" in text
            names = {record["name"] for record in tracer.spans()}
            assert "service.resummarize" in names
        finally:
            tracer.configure(sample=previous)
            tracer.clear()


# ---------------------------------------------------------------------- #
# Session facade: epochs are the one service's methods
# ---------------------------------------------------------------------- #
class TestSessionEpochs:
    def test_resummarize_diff_and_lineage(self, tmp_path):
        schema = make_toy_schema()
        session = Session(schema, store=str(tmp_path / "store"))
        base = session.summarize(toy_ccs())
        report = session.service.resummarize(base.fingerprint, toy_drifted())
        assert report.parent_fingerprint == base.fingerprint
        assert len(report.reused_components) > 0
        cold = Session(schema).summarize(toy_drifted())
        assert report.summary.content_digest() \
            == cold.summary.content_digest()

        diff = session.service.diff(base.fingerprint, report.fingerprint)
        assert isinstance(diff, ManifestDiff)
        assert tuple(diff.reused) == report.reused_components
        assert tuple(diff.added) == report.solved_components
        assert diff.total == report.total_components

        chain = session.service.lineage(report.fingerprint)
        assert [link["fingerprint"] for link in chain] == \
            [report.fingerprint, base.fingerprint]

    def test_stored_drift_counts_like_the_service(self, tmp_path):
        # Re-summarizing a drifted epoch that is already stored runs
        # nothing: the report must list full reuse and zero solves, the same
        # numbers the service counts for the same request.
        schema = make_toy_schema()
        session = Session(schema, store=str(tmp_path / "store"))
        base = session.summarize(toy_ccs())
        service = session.service
        service.resummarize(base.fingerprint, toy_drifted())
        before = service.stats()
        again = service.resummarize(base.fingerprint, toy_drifted())
        after = service.stats()
        assert again.warm
        total = service.diff(base.fingerprint, again.fingerprint).total
        assert len(again.reused_components) == total
        assert again.solved_components == ()
        assert len(again.reused_components) \
            == after["components_reused"] - before["components_reused"]
        assert after["components_resolved"] == before["components_resolved"]

    def test_requires_a_store(self):
        # A storeless session's service keeps epochs in a private temporary
        # store: a base it never built is unknown, as with a directory store.
        service = Session(make_toy_schema()).service
        with pytest.raises(ServiceError):
            service.resummarize("f" * 64, toy_drifted())
        with pytest.raises(ServiceError):
            service.diff("f" * 64, "0" * 64)

    def test_missing_base_raises(self, tmp_path):
        session = Session(make_toy_schema(), store=str(tmp_path / "store"))
        with pytest.raises(ServiceError):
            session.service.resummarize("f" * 64, toy_drifted())


# ---------------------------------------------------------------------- #
# HTTP endpoint
# ---------------------------------------------------------------------- #
def http_post_json(server: RegenerationServer, path: str,
                   payload: dict) -> SimpleNamespace:
    request = urllib.request.Request(
        server.url + path, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return SimpleNamespace(status=response.status,
                                   body=json.loads(response.read()))
    except urllib.error.HTTPError as error:
        return SimpleNamespace(status=error.code,
                               body=json.loads(error.read()))


class TestHTTPResummarize:
    def test_contracts(self, toy_store):
        wire = constraint_set_to_wire(toy_drifted())
        with RegenerationService(toy_store.schema,
                                 store=toy_store.store) as service:
            with RegenerationServer(service) as server:
                response = http_post_json(server, "/v1/resummarize", {
                    "base_fingerprint": toy_store.base_fingerprint,
                    "workload": wire,
                })
                assert response.status == 200
                body = response.body
                assert body["parent_fingerprint"] \
                    == toy_store.base_fingerprint
                assert body["components_reused"] > 0
                assert body["components_total"] == \
                    body["components_reused"] + body["components_solved"]
                cold = Session(toy_store.schema).summarize(toy_drifted())
                assert body["content_digest"] \
                    == cold.summary.content_digest()

                # Unknown base: 404, never a cold base build.
                response = http_post_json(server, "/v1/resummarize", {
                    "base_fingerprint": "f" * 64, "workload": wire})
                assert response.status == 404

                # Malformed body: 400.
                response = http_post_json(server, "/v1/resummarize",
                                          {"workload": wire})
                assert response.status == 400
                response = http_post_json(server, "/v1/resummarize", {
                    "base_fingerprint": toy_store.base_fingerprint,
                    "workload": {"bogus": True}})
                assert response.status == 400

    def test_require_warm_refuses_cold_drift_with_409(self, toy_store):
        with RegenerationService(toy_store.schema,
                                 store=toy_store.store) as service:
            cold_drift = ConstraintSet(
                list(toy_drifted().constraints)
                + [CardinalityConstraint("S", col("B").between(30, 40), 77)],
                name="cold-drift")
            assert not service.store.has_summary(
                service.fingerprint(cold_drift))
            with RegenerationServer(service, require_warm=True) as server:
                response = http_post_json(server, "/v1/resummarize", {
                    "base_fingerprint": toy_store.base_fingerprint,
                    "workload": constraint_set_to_wire(cold_drift),
                })
                assert response.status == 409
                assert "require_warm" in response.body["error"]
