"""Tests for the summary generator: align/merge, view summaries, referential
consistency, relation summaries and serialisation."""

from __future__ import annotations

import pytest

from repro.errors import SummaryError
from repro.predicates.interval import Interval
from repro.summary.align import merge_subview_solutions
from repro.summary.consistency import enforce_referential_consistency
from repro.summary.relation_summary import (
    DatabaseSummary,
    RelationSummary,
    build_relation_summary,
)
from repro.summary.solution import SolutionRow, SubViewSolution
from repro.summary.view_summary import ViewSummary, instantiate_view_summary
from repro.views.viewdef import ViewSet


def _row(intervals, count, cells=None):
    return SolutionRow(
        intervals={a: Interval(lo, hi) for a, (lo, hi) in intervals.items()},
        count=count,
        cells=cells or {a: lo for a, (lo, hi) in intervals.items()},
    )


class TestAlignAndMerge:
    def test_figure8_style_merge(self):
        """Mirror of the paper's Figure 8: two sub-views sharing attribute A."""
        ab = SubViewSolution(attributes=("A", "B"), rows=[
            _row({"A": (0, 40), "B": (0, 5)}, 20_000, cells={"A": 0}),
            _row({"A": (40, 60), "B": (0, 5)}, 10_000, cells={"A": 1}),
            _row({"A": (40, 60), "B": (5, 10)}, 20_000, cells={"A": 1}),
            _row({"A": (60, 100), "B": (5, 10)}, 30_000, cells={"A": 2}),
        ])
        ac = SubViewSolution(attributes=("A", "C"), rows=[
            _row({"A": (0, 40), "C": (2, 3)}, 5_000, cells={"A": 0}),
            _row({"A": (0, 40), "C": (3, 10)}, 15_000, cells={"A": 0}),
            _row({"A": (40, 60), "C": (2, 3)}, 30_000, cells={"A": 1}),
            _row({"A": (60, 100), "C": (3, 10)}, 30_000, cells={"A": 2}),
        ])
        merged = merge_subview_solutions("R", [ab, ac], order=[0, 1],
                                         aligned_attributes=["A"])
        assert set(merged.attributes) == {"A", "B", "C"}
        assert merged.total() == 80_000
        # marginals over A are preserved
        per_a = {}
        for row in merged.rows:
            per_a[row.intervals["A"].lo] = per_a.get(row.intervals["A"].lo, 0) + row.count
        assert per_a == {0: 20_000, 40: 30_000, 60: 30_000}
        # marginals over C are preserved as well (sub-view distribution kept)
        per_c = {}
        for row in merged.rows:
            per_c[row.intervals["C"].lo] = per_c.get(row.intervals["C"].lo, 0) + row.count
        assert per_c == {2: 35_000, 3: 45_000}

    def test_merge_without_common_attributes(self):
        left = SubViewSolution(attributes=("A",), rows=[_row({"A": (0, 10)}, 100)])
        right = SubViewSolution(attributes=("B",), rows=[
            _row({"B": (0, 5)}, 60), _row({"B": (5, 9)}, 40),
        ])
        merged = merge_subview_solutions("R", [left, right], order=[0, 1])
        assert merged.total() == 100
        assert set(merged.attributes) == {"A", "B"}

    def test_leftover_tuples_are_not_dropped(self):
        # deliberately mismatched totals (only possible with rounded LPs)
        left = SubViewSolution(attributes=("A",), rows=[_row({"A": (0, 10)}, 100)])
        right = SubViewSolution(attributes=("A", "B"), rows=[
            _row({"A": (0, 10), "B": (0, 5)}, 90),
        ])
        merged = merge_subview_solutions("R", [left, right], order=[0, 1],
                                         aligned_attributes=["A"])
        assert merged.total() == 100

    def test_one_sided_cell_rows_span_every_attribute(self):
        """An aligned cell present on one side only still yields rows over
        every attribute, so a later merge can align on the other side's
        attributes."""
        ab = SubViewSolution(attributes=("A", "B"), rows=[
            _row({"A": (0, 10), "B": (0, 5)}, 50),
            _row({"A": (10, 20), "B": (5, 9)}, 10),  # cell A=10: AB only
        ])
        ac = SubViewSolution(attributes=("A", "C"), rows=[
            _row({"A": (0, 10), "C": (0, 4)}, 25),
            _row({"A": (0, 10), "C": (4, 8)}, 25),
        ])
        cd = SubViewSolution(attributes=("C", "D"), rows=[
            _row({"C": (0, 4), "D": (0, 3)}, 25),
            _row({"C": (4, 8), "D": (3, 6)}, 35),
        ])
        merged = merge_subview_solutions("R", [ab, ac, cd], order=[0, 1, 2],
                                         aligned_attributes=["A", "C"])
        assert merged.total() == 60
        for row in merged.rows:
            assert set(row.intervals) == {"A", "B", "C", "D"}
        one_sided = [row for row in merged.rows if row.intervals["A"].lo == 10]
        assert sum(row.count for row in one_sided) == 10
        # the row keeps its own intervals and borrows C from the nearest
        # row of the other side (the last one of cell A=0)
        assert all(row.intervals["B"] == Interval(5, 9) for row in one_sided)
        assert all(row.intervals["C"] == Interval(4, 8) for row in one_sided)

    def test_single_subview(self):
        only = SubViewSolution(attributes=("A",), rows=[_row({"A": (3, 10)}, 7)])
        merged = merge_subview_solutions("R", [only], order=[0])
        assert merged.total() == 7
        assert merged.rows[0].intervals["A"].lo == 3


class TestDataSeeds:
    def test_wlc_data_seed_2_builds_at_bench_scale(self, monkeypatch):
        """Data seed 2 gives WLc an aligned cell that only one sub-view
        fills; the build must still merge every view over all of its
        attributes.  Smaller scales never hit that cell."""
        import repro.hydra.pipeline as pipeline
        from repro.benchdata import complex_workload, generate_database, tpcds_schema
        from repro.hydra import Hydra, extract_constraints

        merged = []

        def recording(*args, **kwargs):
            view = merge_subview_solutions(*args, **kwargs)
            merged.append(view)
            return view

        monkeypatch.setattr(pipeline, "merge_subview_solutions", recording)
        schema = tpcds_schema(scale_factor=0.0002, dimension_scale=0.01)
        database = generate_database(schema, seed=2)
        constraints = extract_constraints(
            database, complex_workload(schema, 131), name="wlc").constraints
        result = Hydra(schema).build_summary(constraints)
        assert result.summary.relations
        assert merged
        for view in merged:
            for row in view.rows:
                assert set(row.intervals) == set(view.attributes), view.relation


class TestViewSummary:
    def test_instantiation_uses_left_boundaries(self, toy_schema):
        views = ViewSet(toy_schema)
        solution = merge_subview_solutions("R", [
            SubViewSolution(attributes=("A", "C"), rows=[
                _row({"A": (20, 60), "C": (2, 3)}, 30_000),
                _row({"A": (20, 60), "C": (3, 10)}, 20_000),
                _row({"A": (60, 100), "C": (0, 10)}, 30_000),
            ]),
        ], order=[0])
        summary = instantiate_view_summary(views.view("R"), solution, 80_000)
        assert summary.total() == 80_000
        # B is unconstrained -> filled with its domain minimum
        b_index = summary.attribute_index("B")
        assert all(values[b_index] == 0 for values, _ in summary.rows)
        a_index = summary.attribute_index("A")
        assert {values[a_index] for values, _ in summary.rows} == {20, 60}

    def test_unconstrained_view_gets_single_row(self, toy_schema):
        views = ViewSet(toy_schema)
        summary = instantiate_view_summary(views.view("T"), None, 1500)
        assert len(summary) == 1
        assert summary.total() == 1500

    def test_duplicate_value_combinations_merge(self, toy_schema):
        views = ViewSet(toy_schema)
        solution = merge_subview_solutions("T", [
            SubViewSolution(attributes=("C",), rows=[
                _row({"C": (2, 3)}, 10), _row({"C": (2, 5)}, 5),
            ]),
        ], order=[0])
        summary = instantiate_view_summary(views.view("T"), solution, 15)
        assert len(summary) == 1
        assert summary.rows[0][1] == 15


class TestReferentialConsistency:
    def _summaries(self, toy_schema):
        views = ViewSet(toy_schema)
        r = ViewSummary(relation="R", attributes=views.view("R").attributes)
        # R uses combination (A=20, B=0, C=2) and (A=60, B=0, C=0)
        r.add_row(tuple({"A": 20, "B": 0, "C": 2}[a] for a in r.attributes), 50_000)
        r.add_row(tuple({"A": 60, "B": 0, "C": 0}[a] for a in r.attributes), 30_000)
        s = ViewSummary(relation="S", attributes=views.view("S").attributes)
        s.add_row(tuple({"A": 20, "B": 0}[a] for a in s.attributes), 700)
        t = ViewSummary(relation="T", attributes=views.view("T").attributes)
        t.add_row((2,), 1500)
        return views, {"R": r, "S": s, "T": t}

    def test_missing_combinations_added_with_count_one(self, toy_schema):
        views, summaries = self._summaries(toy_schema)
        report = enforce_referential_consistency(summaries, views, toy_schema)
        # S misses (A=60, B=0) and T misses (C=0)
        assert report.extra_tuples["S"] == 1
        assert report.extra_tuples["T"] == 1
        assert report.extra_tuples["R"] == 0
        assert report.total() == 2
        assert summaries["S"].total() == 701
        assert summaries["T"].total() == 1501

    def test_relation_summary_foreign_keys_point_to_matching_blocks(self, toy_schema):
        views, summaries = self._summaries(toy_schema)
        enforce_referential_consistency(summaries, views, toy_schema)
        r_summary = build_relation_summary("R", summaries, views, toy_schema)
        assert r_summary.total_rows() == 80_000
        s_fk = r_summary.column_index("S_fk")
        t_fk = r_summary.column_index("T_fk")
        first_row_values, _ = r_summary.rows[0]
        # (A=20,B=0) is the first S block covering pks 1..700 -> fk = 700
        assert first_row_values[s_fk] == 700
        # (C=2) is the first T block covering pks 1..1500 -> fk = 1500
        assert first_row_values[t_fk] == 1500
        second_row_values, _ = r_summary.rows[1]
        # (A=60,B=0) was added as the 701st S tuple
        assert second_row_values[s_fk] == 701

    def test_missing_parent_summary_raises(self, toy_schema):
        views, summaries = self._summaries(toy_schema)
        del summaries["T"]
        with pytest.raises(SummaryError):
            build_relation_summary("R", summaries, views, toy_schema)


class TestDatabaseSummarySerialisation:
    def test_roundtrip(self, tmp_path):
        summary = DatabaseSummary(
            relations={
                "r": RelationSummary(relation="r", primary_key="pk", columns=("a", "b"),
                                     rows=[((1, 2), 10), ((3, 4), 5)]),
            },
            extra_tuples={"r": 1},
            lp_variable_counts={"r": 4},
            timings={"total_seconds": 0.5},
        )
        path = tmp_path / "summary.json"
        summary.save(path)
        loaded = DatabaseSummary.load(path)
        assert loaded.relation("r").rows == [((1, 2), 10), ((3, 4), 5)]
        assert loaded.extra_tuples == {"r": 1}
        assert loaded.total_rows() == 15
        assert loaded.nbytes() > 0

    def test_unknown_relation(self):
        with pytest.raises(SummaryError):
            DatabaseSummary().relation("missing")
