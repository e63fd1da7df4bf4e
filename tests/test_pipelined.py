"""Tests for the pipelined (run-batch) executor.

* **Mode equivalence** — pipelined and materialized execution produce
  identical result tables and AQP cardinalities over seeded TPC-DS-like and
  JOB-like workloads, at batch sizes 1, 7 and 65536: over materialised
  tables streamed as count-1 runs, and (as a hypothesis property) over
  dynamically regenerated databases scanned as one run per summary row,
  with hand-added predicates on primary- and foreign-key columns that
  exercise the interval-clip rule.
* **Scale independence** — verifying a summary scaled 10^9-fold through the
  engine counts exactly what :func:`evaluate_on_summary` counts, holding no
  more runs per batch than the summary has rows.
* **True laziness** — pipelined execution over a stream-attached
  (dynamically regenerated) database never calls
  ``TupleGenerator.materialize()`` and never caches any relation.
* **Single-pass stream contract** — a stream factory that hands back the
  same exhausted iterator twice raises ``EngineError`` instead of silently
  yielding empty data.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchdata.datagen import generate_database
from repro.benchdata.job import job_workload
from repro.benchdata.tpcds import simple_workload
from repro.codd.scaling import scale_summary
from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.engine.pipeline import (
    BatchFilter,
    BatchHashJoin,
    BatchScan,
    HashJoinBuild,
    collect,
)
from repro.engine.table import RunBatch, Table
from repro.errors import EngineError
from repro.hydra.pipeline import Hydra
from repro.metrics.similarity import evaluate_on_summary, evaluate_with_executor
from repro.predicates.dnf import and_, col, or_
from repro.summary.relation_summary import RelationSummary
from repro.tuplegen.generator import (
    TupleGenerator,
    dynamic_database,
    materialize_database,
)
from repro.workload.query import Query, Workload

BATCH_SIZES = (1, 7, 65_536)

#: Fact-table row limit per batch size, keeping the per-row Python overhead
#: of the degenerate batch sizes bounded while still spanning many batches.
ROW_LIMITS = {1: 60, 7: 700, 65_536: None}


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #
def sliced(database: Database, limit):
    """A copy of ``database`` with every table truncated to ``limit`` rows.

    Both executor modes run against the same truncated instance, so the
    equivalence check is unaffected by any dangling foreign keys the
    truncation introduces.
    """
    if limit is None:
        return database
    copy = Database(database.schema, name=f"{database.name}-sliced")
    for relation in database.relations:
        table = database.table(relation)
        copy.attach(relation, Table(
            {c: table.column(c)[:limit] for c in table.column_names},
            name=relation,
        ))
    return copy


def streamed_copy(database: Database, batch_size: int) -> Database:
    """Re-attach every table of ``database`` as a batch stream."""
    copy = Database(database.schema, name=f"{database.name}-streamed")
    for relation in database.relations:
        table = database.table(relation)

        def factory(table: Table = table) -> "iter":
            return (
                table.select(np.arange(len(table)) // batch_size == i)
                for i in range((len(table) + batch_size - 1) // batch_size)
            )

        copy.attach_stream(relation, factory, row_count=table.num_rows)
    return copy


def assert_identical(materialized, pipelined):
    """Result tables and annotated plans of the two modes must be equal."""
    left, right = materialized.table, pipelined.table
    assert left.num_rows == right.num_rows
    assert set(left.column_names) == set(right.column_names)
    for column in left.column_names:
        assert np.array_equal(left.column(column), right.column(column)), column
    assert materialized.plan.operator_cardinalities() == \
        pipelined.plan.operator_cardinalities()
    assert materialized.plan == pipelined.plan


# ---------------------------------------------------------------------- #
# mode equivalence over seeded benchmark workloads
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_modes_identical_on_tpcds_workload(small_tpcds_schema,
                                           small_tpcds_database, batch_size):
    base = sliced(small_tpcds_database, ROW_LIMITS[batch_size])
    streamed = streamed_copy(base, batch_size)
    workload = simple_workload(small_tpcds_schema, num_queries=25, seed=3)
    materializer = Executor(base, mode="materialize")
    pipeliner = Executor(streamed, mode="pipelined")
    for query in workload:
        assert_identical(materializer.execute(query), pipeliner.execute(query))
    assert pipeliner.stats.peak_batch_rows <= batch_size


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_modes_identical_on_job_workload(small_job_schema, batch_size):
    base = sliced(generate_database(small_job_schema, seed=19),
                  ROW_LIMITS[batch_size])
    streamed = streamed_copy(base, batch_size)
    workload = job_workload(small_job_schema, num_queries=20, seed=23)
    materializer = Executor(base, mode="materialize")
    pipeliner = Executor(streamed, mode="pipelined")
    for query in workload:
        assert_identical(materializer.execute(query), pipeliner.execute(query))
    assert pipeliner.stats.peak_batch_rows <= batch_size


def test_count_matches_collected_table(small_tpcds_schema, small_tpcds_database):
    streamed = streamed_copy(small_tpcds_database, 4096)
    workload = simple_workload(small_tpcds_schema, num_queries=10, seed=3)
    for query in workload:
        predicates = [query.filter_for(rel) for rel in query.relations]
        reference = Executor(small_tpcds_database, mode="materialize").execute(query).table
        counts = Executor(streamed, mode="pipelined").count(query, predicates)
        assert counts == [reference.count(p) for p in predicates]


# ---------------------------------------------------------------------- #
# run batches over regenerated databases
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def regenerated(small_tpcds_schema, small_tpcds_constraints,
                small_job_schema, small_job_constraints):
    """Per benchmark: schema, Hydra summary, workload and a materialize-mode
    reference executor over the same regenerated data."""
    envs = {}
    for name, schema, ccs, workload in (
            ("tpcds", small_tpcds_schema, small_tpcds_constraints,
             simple_workload(small_tpcds_schema, num_queries=25, seed=3)),
            ("job", small_job_schema, small_job_constraints,
             job_workload(small_job_schema, num_queries=20, seed=23))):
        summary = Hydra(schema).build_summary(ccs).summary
        reference = Executor(dynamic_database(summary, schema), mode="materialize")
        envs[name] = (schema, summary, workload, reference)
    return envs


@st.composite
def key_predicate(draw, schema, summary, relation):
    """An OR of ANDs over ``relation``'s primary key, a foreign key and an
    attribute — a primary-key window clips runs, the rest filter whole
    runs, and overlapping conjuncts must not count a key twice."""
    rel = schema.relation(relation)

    def window(column, lo, hi):
        start = draw(st.integers(lo, hi))
        return col(column).between(start, draw(st.integers(start + 1, hi + 1)))

    terms = [window(rel.primary_key, 0, summary.relation(relation).total_rows() + 1)]
    for fk in rel.foreign_keys[:1]:
        terms.append(window(fk.column, 0, summary.relation(fk.target).total_rows() + 1))
    for attribute in rel.attributes[:1]:
        terms.append(window(attribute.name, attribute.domain.lo, attribute.domain.hi))
    conjuncts = draw(st.lists(st.lists(st.sampled_from(terms), min_size=1, max_size=3),
                              min_size=1, max_size=3))
    return or_(*(and_(*terms) for terms in conjuncts))


@pytest.mark.parametrize("env", ["tpcds", "job"])
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_run_path_matches_materialize(regenerated, env, batch_size, data):
    """Queries and key-predicate counts over runs equal the reference's
    tuple-level results: tables, cardinalities and plans."""
    schema, summary, workload, reference = regenerated[env]
    query = data.draw(st.sampled_from(workload.queries))
    runs = Executor(dynamic_database(summary, schema, batch_size=batch_size))
    assert_identical(reference.execute(query), runs.execute(query))
    predicates = [data.draw(key_predicate(schema, summary, query.root))
                  for _ in range(3)]
    assert runs.count(query, predicates) == reference.count(query, predicates)
    assert runs.stats.peak_batch_rows <= batch_size


@pytest.mark.parametrize("env", ["tpcds", "job"])
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_key_clipped_join_matches_materialize(regenerated, env, batch_size, data):
    """Primary-key predicates on the fact side and on a dimension's build
    side clip runs exactly as row-level evaluation filters tuples."""
    schema, summary, _, _ = regenerated[env]
    edges = [(rel.name, fk.column, fk.target)
             for rel in schema.relations for fk in rel.foreign_keys]
    child, fk_column, parent = data.draw(st.sampled_from(edges))
    child_filter = data.draw(key_predicate(schema, summary, child))
    parent_filter = data.draw(key_predicate(schema, summary, parent))

    def join(database):
        build = RunBatch.concat(list(BatchScan(database, parent))).filter(parent_filter)
        probe = BatchHashJoin(BatchFilter(BatchScan(database, child), child_filter),
                              fk_column, HashJoinBuild(build))
        return collect(probe), probe.rows_out, build.num_rows

    runs = join(dynamic_database(summary, schema, batch_size=batch_size))
    tuples = join(materialize_database(summary, schema))
    assert runs[1:] == tuples[1:]
    assert runs[0].column_names == tuples[0].column_names
    for column in tuples[0].column_names:
        assert np.array_equal(runs[0].column(column), tuples[0].column(column)), column


@given(rows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 9)), min_size=1,
                     max_size=12).filter(lambda rows: any(n for _, n in rows)),
       batch_size=st.sampled_from(BATCH_SIZES),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_run_filter_equals_tuple_filter(rows, batch_size, data):
    """Any summary (zero-count rows included), any batch size, any DNF over
    the key and a value: filtering runs then expanding equals expanding
    then filtering tuples."""
    summary = RelationSummary(relation="X", primary_key="pk", columns=("v",),
                              rows=[((value,), count) for value, count in rows])
    total = summary.total_rows()
    bounds = st.integers(-1, total + 2)
    terms = [col("pk").between(lo, lo + width) for lo, width in
             data.draw(st.lists(st.tuples(bounds, st.integers(1, 12)), min_size=1,
                                max_size=3))]
    terms.append(col("v") == data.draw(st.integers(0, 3)))
    conjuncts = data.draw(st.lists(st.lists(st.sampled_from(terms), min_size=1,
                                            max_size=2), min_size=1, max_size=3))
    predicate = or_(*(and_(*terms) for terms in conjuncts))
    batches = list(TupleGenerator(summary).runs(batch_size=batch_size))
    assert all(0 < batch.num_runs <= batch_size for batch in batches)
    expected = TupleGenerator(summary).materialize()
    expanded = Table.concat([batch.expand() for batch in batches])
    for column in ("pk", "v"):
        assert np.array_equal(expanded.column(column), expected.column(column))
    kept = expected.select(expected.evaluate(predicate))
    clipped = [batch.filter(predicate) for batch in batches]
    assert all((c.counts > 0).all() for c in clipped)
    assert sum(batch.count(predicate) for batch in batches) == kept.num_rows
    assert sum(c.num_rows for c in clipped) == kept.num_rows
    if kept.num_rows:
        got = Table.concat([c.expand() for c in clipped])
        for column in ("pk", "v"):
            assert np.array_equal(got.column(column), kept.column(column))


def test_verify_is_scale_independent(regenerated, small_tpcds_constraints):
    """A summary scaled 10^9-fold verifies through the engine in runs:
    counts equal the summary oracle's, batches hold at most one run per
    summary row."""
    schema, summary, _, _ = regenerated["tpcds"]
    scaled = scale_summary(summary, schema, 10**9)
    executor = Executor(dynamic_database(scaled, schema))
    report = evaluate_with_executor(small_tpcds_constraints, executor)
    oracle = evaluate_on_summary(small_tpcds_constraints, scaled, schema)
    assert [r.actual for r in report.results] == [r.actual for r in oracle.results]
    assert executor.stats.tuples >= 10**9 * summary.relation("store_sales").total_rows()
    assert executor.stats.peak_batch_rows <= max(
        len(relation) for relation in scaled.relations.values())


# ---------------------------------------------------------------------- #
# laziness: no relation is ever materialised in pipelined mode
# ---------------------------------------------------------------------- #
def toy_workload() -> Workload:
    return Workload(name="toy", queries=[
        Query(query_id="q1", root="R", relations=("R", "S", "T"),
              filters={"S": col("A").between(20, 60), "T": col("C").between(2, 3)}),
        Query(query_id="q2", root="R", relations=("R", "S")),
        Query(query_id="q3", root="S", relations=("S",),
              filters={"S": col("A").between(20, 60)}),
    ])


def test_pipelined_never_materializes_fact(toy_schema, monkeypatch):
    from tests.test_service import toy_ccs

    summary = Hydra(toy_schema).build_summary(toy_ccs()).summary

    def forbidden(self):
        raise AssertionError("pipelined execution called materialize()")

    monkeypatch.setattr(TupleGenerator, "materialize", forbidden)
    database = dynamic_database(summary, toy_schema, batch_size=8192)
    executor = Executor(database, mode="pipelined")
    plans = executor.execute_workload(toy_workload())
    # Every relation, fact and dimension build sides alike, was consumed as
    # runs and never cached.
    assert all(database.is_dynamic(rel) for rel in ("R", "S", "T"))
    # q2 joins the full fact against an unfiltered dimension: referential
    # consistency guarantees every regenerated fact row survives.
    assert plans[1].output_cardinality() == 80_000
    assert executor.stats.peak_batch_rows <= 8192

    # AQPs equal those of materialized-mode execution of the same workload.
    reference = Executor(dynamic_database(summary, toy_schema), mode="materialize")
    monkeypatch.undo()
    expected = reference.execute_workload(toy_workload())
    assert [p.operator_cardinalities() for p in plans] == \
        [p.operator_cardinalities() for p in expected]


# ---------------------------------------------------------------------- #
# single-pass stream contract
# ---------------------------------------------------------------------- #
class TestScanBatchesContract:
    def _batches(self):
        return iter([Table({"T_pk": np.arange(1, 4), "C": np.array([1, 2, 3])},
                           name="T")])

    def test_same_iterator_factory_rejected(self, toy_schema):
        database = Database(toy_schema)
        one_shot = self._batches()
        database.attach_stream("T", lambda: one_shot)
        assert sum(b.num_rows for b in database.scan_batches("T")) == 3
        with pytest.raises(EngineError, match="same iterator object"):
            database.scan_batches("T")

    def test_fresh_iterator_factory_allows_rescans(self, toy_schema):
        database = Database(toy_schema)
        database.attach_stream("T", self._batches)
        for _ in range(3):
            assert sum(b.num_rows for b in database.scan_batches("T")) == 3

    def test_reattach_resets_one_shot_source(self, toy_schema):
        database = Database(toy_schema)
        one_shot = self._batches()
        database.attach_stream("T", lambda: one_shot)
        assert sum(b.num_rows for b in database.scan_batches("T")) == 3
        fresh = self._batches()
        database.attach_stream("T", lambda: fresh)
        assert sum(b.num_rows for b in database.scan_batches("T")) == 3


# ---------------------------------------------------------------------- #
# knobs and accounting
# ---------------------------------------------------------------------- #
class TestExecutorKnobs:
    def test_unknown_mode_rejected(self, toy_database):
        with pytest.raises(EngineError, match="unknown executor mode"):
            Executor(toy_database, mode="vectorized")

    def test_materialize_mode_peak_is_full_table(self, toy_database):
        executor = Executor(toy_database, mode="materialize")
        query = Query(query_id="q", root="R", relations=("R", "S"))
        executor.execute(query)
        assert executor.stats.peak_batch_rows == 80_000

    def test_pipelined_mode_peak_is_one_batch(self, toy_schema, toy_database):
        streamed = streamed_copy(toy_database, 5_000)
        executor = Executor(streamed, mode="pipelined")
        query = Query(query_id="q", root="R", relations=("R", "S"))
        plan = executor.execute_plan(query)
        assert plan.output_cardinality() == 80_000
        assert 0 < executor.stats.peak_batch_rows <= 5_000
        assert executor.stats.batches >= 2 * 16  # scan + join, 16 batches each

    def test_operator_chains_are_single_use(self, toy_database):
        from repro.engine.pipeline import BatchScan, drain

        scan = BatchScan(toy_database, "S")
        assert drain(scan) == 700
        with pytest.raises(EngineError, match="single-use"):
            drain(scan)
        assert scan.rows_out == 700  # no double counting happened

    def test_empty_stream_yields_empty_result(self, toy_schema):
        database = Database(toy_schema)
        database.attach_stream("T", lambda: iter(()), row_count=0)
        executor = Executor(database, mode="pipelined")
        result = executor.execute(Query(query_id="q", root="T", relations=("T",),
                                        filters={"T": col("C") == 2}))
        assert result.table.num_rows == 0
        assert result.table.has_column("C")
        assert result.plan.output_cardinality() == 0
