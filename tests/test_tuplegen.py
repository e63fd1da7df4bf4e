"""Tests for the tuple generator (Section 6) and dynamic databases."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GenerationError
from repro.summary.relation_summary import DatabaseSummary, RelationSummary
from repro.tuplegen.generator import TupleGenerator, dynamic_database, materialize_database


@pytest.fixture
def sample_summary():
    return RelationSummary(
        relation="S", primary_key="S_pk", columns=("A", "B"),
        rows=[((20, 15), 250), ((40, 7), 100), ((90, 1), 350)],
    )


class TestTupleGenerator:
    def test_total_rows(self, sample_summary):
        assert TupleGenerator(sample_summary).total_rows == 700

    def test_row_lookup_matches_paper_example(self, sample_summary):
        """The 120th row of S in Figure 5 is <120, 20, 15>."""
        generator = TupleGenerator(sample_summary)
        assert generator.row(120) == {"S_pk": 120, "A": 20, "B": 15}
        assert generator.row(250) == {"S_pk": 250, "A": 20, "B": 15}
        assert generator.row(251) == {"S_pk": 251, "A": 40, "B": 7}
        assert generator.row(700) == {"S_pk": 700, "A": 90, "B": 1}

    def test_row_out_of_range(self, sample_summary):
        generator = TupleGenerator(sample_summary)
        with pytest.raises(GenerationError):
            generator.row(0)
        with pytest.raises(GenerationError):
            generator.row(701)

    def test_materialize_matches_row_lookup(self, sample_summary):
        generator = TupleGenerator(sample_summary)
        table = generator.materialize()
        assert table.num_rows == 700
        assert table.row(119) == generator.row(120)
        counts = np.bincount(table.column("A"), minlength=100)
        assert counts[20] == 250 and counts[40] == 100 and counts[90] == 350

    def test_stream_equals_materialize(self, sample_summary):
        generator = TupleGenerator(sample_summary)
        batches = list(generator.stream(batch_size=64))
        assert sum(b.num_rows for b in batches) == 700
        streamed_a = np.concatenate([b.column("A") for b in batches])
        assert np.array_equal(streamed_a, generator.materialize().column("A"))
        streamed_pk = np.concatenate([b.column("S_pk") for b in batches])
        assert np.array_equal(streamed_pk, np.arange(1, 701))

    def test_stream_equals_materialize_across_batch_sizes(self, sample_summary):
        generator = TupleGenerator(sample_summary)
        reference = generator.materialize()
        for batch_size in (1, 7, 65_536):
            batches = list(generator.stream(batch_size=batch_size))
            for column in ("S_pk",) + sample_summary.columns:
                streamed = np.concatenate([b.column(column) for b in batches])
                assert np.array_equal(streamed, reference.column(column)), \
                    (batch_size, column)

    def test_generation_diagnostics_counters(self, sample_summary):
        generator = TupleGenerator(sample_summary)
        assert generator.full_materializations == 0
        assert generator.batches_streamed == 0
        list(generator.stream(batch_size=100))
        assert generator.batches_streamed == 7
        assert generator.full_materializations == 0
        generator.materialize()
        assert generator.full_materializations == 1

    def test_stream_requires_positive_batch(self, sample_summary):
        with pytest.raises(GenerationError):
            list(TupleGenerator(sample_summary).stream(batch_size=0))

    def test_empty_summary(self):
        empty = RelationSummary(relation="E", primary_key="pk", columns=("x",), rows=[])
        generator = TupleGenerator(empty)
        assert generator.total_rows == 0
        assert generator.materialize().num_rows == 0


class TestDatabaseMaterialisation:
    def _summary(self, toy_schema):
        return DatabaseSummary(relations={
            "S": RelationSummary("S", "S_pk", ("A", "B"), [((20, 0), 700)]),
            "T": RelationSummary("T", "T_pk", ("C",), [((2,), 1500)]),
            "R": RelationSummary("R", "R_pk", ("S_fk", "T_fk"), [((700, 1500), 80_000)]),
        })

    def test_materialize_database(self, toy_schema):
        db = materialize_database(self._summary(toy_schema), toy_schema)
        assert db.table("R").num_rows == 80_000
        assert db.table("S").num_rows == 700
        assert int(db.table("R").column("S_fk")[0]) == 700

    def test_dynamic_database_defers_generation(self, toy_schema):
        db = dynamic_database(self._summary(toy_schema), toy_schema)
        assert db.is_dynamic("R")
        table = db.table("R")
        assert table.num_rows == 80_000
        assert not db.is_dynamic("R")

    def test_dynamic_database_never_materializes_eagerly(self, toy_schema, monkeypatch):
        """The dynamic path must be served by the batched ``stream()`` path:
        no full one-shot materialisation may happen, before or after the
        first scan."""
        def forbidden(self):
            raise AssertionError("dynamic database called materialize()")

        monkeypatch.setattr(TupleGenerator, "materialize", forbidden)
        db = dynamic_database(self._summary(toy_schema), toy_schema,
                              batch_size=4096)
        assert all(db.is_dynamic(name) for name in ("R", "S", "T"))
        # first scan generates via stream batches, never materialize()
        assert db.table("R").num_rows == 80_000
        assert db.table("S").num_rows == 700

    def test_dynamic_database_scan_batches_bounded(self, toy_schema):
        db = dynamic_database(self._summary(toy_schema), toy_schema,
                              batch_size=1000)
        seen = 0
        for batch in db.scan_batches("R"):
            # A scan batch is bounded in runs (summary rows), not tuples.
            assert batch.num_runs <= 1000
            seen += batch.num_rows
        assert seen == 80_000
        # batch scanning alone must not materialise the relation
        assert db.is_dynamic("R")

    def test_dynamic_database_matches_materialized(self, toy_schema):
        summary = self._summary(toy_schema)
        dynamic = dynamic_database(summary, toy_schema, batch_size=777)
        materialized = materialize_database(summary, toy_schema)
        for relation in ("R", "S", "T"):
            left, right = dynamic.table(relation), materialized.table(relation)
            assert left.num_rows == right.num_rows
            for column in left.column_names:
                assert np.array_equal(left.column(column), right.column(column))


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 200)), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_materialised_value_counts_match_summary(rows):
    """Property: for any summary, the materialised column value histogram is
    exactly the per-row counts aggregated by value."""
    summary = RelationSummary(
        relation="X", primary_key="pk", columns=("v",),
        rows=[((value,), count) for value, count in rows],
    )
    table = TupleGenerator(summary).materialize()
    assert table.num_rows == sum(count for _, count in rows)
    expected = {}
    for value, count in rows:
        expected[value] = expected.get(value, 0) + count
    values = table.column("v")
    for value, count in expected.items():
        assert int((values == value).sum()) == count
