"""Unit tests for the columnar table, database container and executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.engine.plan import FilterNode, JoinNode, ScanNode
from repro.engine.table import Table
from repro.errors import EngineError
from repro.predicates.dnf import DNFPredicate, col
from repro.workload.query import Query


# ---------------------------------------------------------------------- #
# Table
# ---------------------------------------------------------------------- #
class TestTable:
    def test_construction_and_shape(self):
        t = Table({"a": np.array([1, 2, 3]), "b": np.array([4, 5, 6])}, name="t")
        assert t.num_rows == 3
        assert t.column_names == ("a", "b")
        assert t.row(1) == {"a": 2, "b": 5}

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(EngineError):
            Table({"a": np.array([1, 2]), "b": np.array([1])})

    def test_needs_columns(self):
        with pytest.raises(EngineError):
            Table({})

    def test_empty(self):
        e = Table.empty(["a", "b"])
        assert e.num_rows == 0
        assert e.column_names == ("a", "b")

    def test_select_take_project(self):
        t = Table({"a": np.arange(5), "b": np.arange(5) * 10})
        sel = t.select(np.array([True, False, True, False, True]))
        assert list(sel.column("a")) == [0, 2, 4]
        taken = t.take(np.array([1, 1, 3]))
        assert list(taken.column("b")) == [10, 10, 30]
        proj = t.project(["b"])
        assert proj.column_names == ("b",)

    def test_with_columns(self):
        t = Table({"a": np.arange(3)})
        t2 = t.with_columns({"b": np.arange(3) * 2})
        assert t2.column_names == ("a", "b")
        with pytest.raises(EngineError):
            t2.with_columns({"a": np.arange(3)})

    def test_evaluate_predicates(self):
        t = Table({"a": np.array([1, 5, 9]), "b": np.array([2, 2, 7])})
        assert t.count(col("a") >= 5) == 2
        assert t.count((col("a") >= 5).conjoin(col("b") == 2)) == 1
        assert t.count(DNFPredicate.true()) == 3
        assert t.count(DNFPredicate.false()) == 0
        # predicate on a missing column never matches
        assert t.count(col("zzz") >= 0) == 0

    def test_row_bounds(self):
        t = Table({"a": np.arange(3)})
        with pytest.raises(EngineError):
            t.row(3)

    def test_missing_column(self):
        t = Table({"a": np.arange(3)})
        with pytest.raises(EngineError):
            t.column("b")


# ---------------------------------------------------------------------- #
# Database
# ---------------------------------------------------------------------- #
class TestDatabase:
    def test_attach_validates_columns(self, toy_schema):
        db = Database(toy_schema)
        with pytest.raises(EngineError):
            db.attach("S", Table({"S_pk": np.arange(3)}))  # missing A, B

    def test_missing_table(self, toy_schema):
        db = Database(toy_schema)
        with pytest.raises(EngineError):
            db.table("R")

    def test_dump_and_load_roundtrip(self, toy_schema, toy_database, tmp_path):
        paths = toy_database.dump(tmp_path)
        assert set(paths) == {"R", "S", "T"}
        loaded = Database.load(toy_schema, tmp_path)
        for name in ("R", "S", "T"):
            original = toy_database.table(name)
            copy = loaded.table(name)
            assert copy.num_rows == original.num_rows
            for column in original.column_names:
                assert np.array_equal(copy.column(column), original.column(column))

    def test_row_counts_and_bytes(self, toy_database):
        counts = toy_database.row_counts()
        assert counts["R"] == 80_000
        assert toy_database.total_rows() == sum(counts.values())
        assert toy_database.nbytes() > 0


# ---------------------------------------------------------------------- #
# Executor on the paper's Figure 1 scenario
# ---------------------------------------------------------------------- #
class TestExecutorToyScenario:
    def _figure1_query(self):
        return Query(
            query_id="fig1",
            root="R",
            relations=("R", "S", "T"),
            filters={
                "S": col("A").between(20, 60),
                "T": col("C").between(2, 3),
            },
        )

    def test_annotated_cardinalities_match_figure_1c(self, toy_database):
        result = Executor(toy_database).execute(self._figure1_query())
        plan = result.plan
        assert result.table.num_rows == 30_000
        cardinalities = {}
        for node in plan.nodes():
            if isinstance(node, FilterNode):
                cardinalities[f"filter:{node.relation}"] = node.cardinality
            elif isinstance(node, JoinNode):
                cardinalities[f"join:{node.parent_relation}"] = node.cardinality
            elif isinstance(node, ScanNode):
                cardinalities[f"scan:{node.relation}"] = node.cardinality
        assert cardinalities["scan:R"] == 80_000
        assert cardinalities["scan:S"] == 700
        assert cardinalities["scan:T"] == 1_500
        assert cardinalities["filter:S"] == 400
        assert cardinalities["filter:T"] == 900
        assert cardinalities["join:S"] == 50_000
        assert cardinalities["join:T"] == 30_000

    def test_join_carries_parent_attributes(self, toy_database):
        result = Executor(toy_database).execute(self._figure1_query())
        assert result.table.has_column("A")
        assert result.table.has_column("C")
        # every surviving row satisfies both dimension filters
        assert result.table.count(col("A").between(20, 60)) == result.table.num_rows
        assert result.table.count(col("C").between(2, 3)) == result.table.num_rows

    def test_single_relation_query(self, toy_database):
        query = Query(query_id="q", root="S", relations=("S",),
                      filters={"S": col("A").between(20, 60)})
        result = Executor(toy_database).execute(query)
        assert result.plan.output_cardinality() == 400

    def test_unfiltered_join_preserves_fact_rows(self, toy_database):
        query = Query(query_id="q", root="R", relations=("R", "S"))
        result = Executor(toy_database).execute(query)
        assert result.plan.output_cardinality() == 80_000
