"""Tests for the AQP-to-CC parser (Figure 1(c) -> Figure 1(d))."""

from __future__ import annotations

import pytest

from repro.constraints.parser import (
    constraints_from_plan,
    constraints_from_plans,
    relation_size_constraints,
)
from repro.engine.executor import Executor
from repro.predicates.dnf import col
from repro.workload.query import Query


@pytest.fixture
def figure1_plan(toy_database):
    query = Query(
        query_id="fig1",
        root="R",
        relations=("R", "S", "T"),
        filters={"S": col("A").between(20, 60), "T": col("C").between(2, 3)},
    )
    return Executor(toy_database).execute(query).plan


class TestConstraintsFromPlan:
    def test_number_and_kinds_of_constraints(self, figure1_plan):
        ccs = constraints_from_plan(figure1_plan)
        # two filters + two joins, as in Figure 1(d) (sizes are added separately)
        assert len(ccs) == 4
        kinds = sorted((cc.relation, len(cc.joined_relations), cc.cardinality) for cc in ccs)
        assert ("R", 2, 50_000) in kinds
        assert ("R", 3, 30_000) in kinds
        assert ("S", 1, 400) in kinds
        assert ("T", 1, 900) in kinds

    def test_join_constraint_predicates_accumulate_filters(self, figure1_plan):
        ccs = constraints_from_plan(figure1_plan)
        final = next(cc for cc in ccs if len(cc.joined_relations) == 3)
        assert set(final.predicate.attributes) == {"A", "C"}
        assert final.relation == "R"
        assert final.query_id == "fig1"

    def test_filter_constraint_rooted_at_dimension(self, figure1_plan):
        ccs = constraints_from_plan(figure1_plan)
        s_cc = next(cc for cc in ccs if cc.relation == "S")
        assert s_cc.joined_relations == ("S",)
        assert s_cc.predicate.attributes == ("A",)


class TestRelationSizeConstraints:
    def test_sizes_from_schema(self, toy_schema):
        ccs = relation_size_constraints(toy_schema)
        by_relation = {cc.relation: cc.cardinality for cc in ccs}
        assert by_relation == {"R": 80_000, "S": 700, "T": 1_500}
        assert all(cc.is_size_constraint for cc in ccs)

    def test_row_count_override(self, toy_schema):
        ccs = relation_size_constraints(toy_schema, relations=["S"], row_counts={"S": 123})
        assert len(ccs) == 1
        assert ccs[0].cardinality == 123


class TestConstraintsFromPlans:
    def test_workload_level_extraction(self, toy_database, figure1_plan):
        ccs = constraints_from_plans([figure1_plan], toy_database.schema,
                                     row_counts=toy_database.row_counts())
        # 4 plan constraints + 3 size constraints
        assert len(ccs) == 7
        assert set(ccs.relations()) == {"R", "S", "T"}

    def test_deduplication(self, toy_database, figure1_plan):
        ccs = constraints_from_plans([figure1_plan, figure1_plan], toy_database.schema)
        dedup = constraints_from_plans([figure1_plan], toy_database.schema)
        assert len(ccs) == len(dedup)

    def test_no_sizes(self, toy_database, figure1_plan):
        ccs = constraints_from_plans([figure1_plan], toy_database.schema, include_sizes=False)
        assert all(not cc.is_size_constraint for cc in ccs)

    def test_constraint_set_statistics(self, toy_database, figure1_plan):
        ccs = constraints_from_plans([figure1_plan], toy_database.schema,
                                     row_counts=toy_database.row_counts())
        stats = ccs.summary()
        assert stats["count"] == 7
        assert stats["max"] == 80_000
        histogram = ccs.cardinality_histogram()
        assert sum(histogram["counts"]) == 7
        scaled = ccs.scaled(10.0)
        assert max(cc.cardinality for cc in scaled) == 800_000
