"""Tests for the metrics helpers and the CODD scaling module."""

from __future__ import annotations

import pytest

from repro.codd.scaling import (
    database_bytes,
    bytes_per_row,
    scale_constraints,
    scale_factor_for_bytes,
)
from repro.constraints.cc import CardinalityConstraint
from repro.constraints.workload import ConstraintSet
from repro.metrics.costmodel import (
    ThroughputModel,
    format_duration,
    materialization_table,
    rows_for_target_bytes,
)
from repro.metrics.integrity import compare_extra_tuples
from repro.metrics.lpsize import compare_lp_sizes
from repro.metrics.similarity import ConstraintResult, SimilarityReport
from repro.predicates.dnf import DNFPredicate, col


class TestSimilarityReport:
    def _report(self):
        ccs = [
            CardinalityConstraint(relation="r", predicate=col("a") >= 1, cardinality=100),
            CardinalityConstraint(relation="r", predicate=col("a") >= 2, cardinality=50),
            CardinalityConstraint(relation="r", predicate=col("a") >= 3, cardinality=0),
        ]
        return SimilarityReport(results=[
            ConstraintResult(constraint=ccs[0], expected=100, actual=100),
            ConstraintResult(constraint=ccs[1], expected=50, actual=55),
            ConstraintResult(constraint=ccs[2], expected=0, actual=0),
        ])

    def test_error_statistics(self):
        report = self._report()
        assert report.fraction_exact() == pytest.approx(2 / 3)
        assert report.fraction_within(0.1) == 1.0
        assert report.max_error() == pytest.approx(0.1)
        assert report.fraction_negative() == 0.0

    def test_zero_expected_with_rows_counts_as_error(self):
        cc = CardinalityConstraint(relation="r", predicate=col("a") >= 9, cardinality=0)
        result = ConstraintResult(constraint=cc, expected=0, actual=7)
        assert result.relative_error == 7.0


class TestLPSizeAndIntegrityComparisons:
    def test_compare_lp_sizes_region_never_larger(self, toy_schema):
        ccs = ConstraintSet([
            CardinalityConstraint(relation="R", cardinality=100,
                                  predicate=(col("A") >= 10).conjoin(col("C") >= 2)),
            CardinalityConstraint(relation="R", cardinality=80_000,
                                  predicate=DNFPredicate.true()),
        ])
        comparison = compare_lp_sizes(toy_schema, ccs)
        for relation, region, grid, reduction in comparison.rows():
            assert region <= grid
            assert reduction >= 1.0
        assert comparison.total("grid") >= comparison.total("region")

    def test_integrity_comparison(self):
        comparison = compare_extra_tuples({"a": 5, "b": 0}, {"a": 50, "b": 3})
        assert comparison.relations() == ["a", "b"]
        assert comparison.totals() == (5, 53)
        rows = dict((name, (h, d)) for name, h, d in comparison.rows())
        assert rows["a"] == (5, 50)


class TestCostModel:
    def test_throughput_prediction(self):
        model = ThroughputModel(measured_rows=1000, measured_seconds=2.0)
        assert model.rows_per_second == 500
        assert model.predict_seconds(5000) == pytest.approx(10.0)

    def test_materialization_table_shape(self, toy_schema):
        hydra = ThroughputModel(measured_rows=10_000, measured_seconds=1.0)
        datasynth = ThroughputModel(measured_rows=10_000, measured_seconds=50.0)
        counts = {rel.name: rel.row_count for rel in toy_schema.relations}
        table = materialization_table(toy_schema, counts, hydra, datasynth,
                                      target_gigabytes=(10, 100))
        assert len(table) == 2
        assert table[1]["total_rows"] > table[0]["total_rows"]
        assert table[0]["datasynth_seconds"] > table[0]["hydra_seconds"]

    def test_rows_for_target_bytes_scales_linearly(self, toy_schema):
        counts = {rel.name: rel.row_count for rel in toy_schema.relations}
        ten = rows_for_target_bytes(toy_schema, 10 * 10**9, counts)
        hundred = rows_for_target_bytes(toy_schema, 100 * 10**9, counts)
        assert hundred == pytest.approx(10 * ten, rel=0.01)

    def test_format_duration(self):
        assert format_duration(30).endswith("sec")
        assert format_duration(600).endswith("min")
        assert format_duration(7200 * 3).endswith("hours")
        assert format_duration(3600 * 24 * 5).endswith("days")
        assert format_duration(3600 * 24 * 30).endswith("weeks")


class TestCoddMetadataAndScaling:
    def test_scale_factor_and_constraint_scaling(self, toy_schema):
        target = 10**12
        factor = scale_factor_for_bytes(toy_schema, target)
        assert database_bytes(toy_schema) * factor == pytest.approx(target)
        assert bytes_per_row(toy_schema, "R") == 24
        ccs = ConstraintSet([
            CardinalityConstraint(relation="R", predicate=DNFPredicate.true(),
                                  cardinality=80_000),
        ])
        scaled = scale_constraints(ccs, 100.0, name="scaled")
        assert scaled[0].cardinality == 8_000_000
        assert scaled.name == "scaled"
