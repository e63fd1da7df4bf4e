"""End-to-end tests of the Hydra pipeline and the DataSynth baseline."""

from __future__ import annotations

import pytest

from repro.api import RegenConfig
from repro.codd.scaling import scale_constraints
from repro.datasynth.pipeline import DataSynth, DataSynthConfig
from repro.errors import LPTooLargeError
from repro.hydra.client import extract_constraints
from repro.hydra.pipeline import Hydra
from repro.metrics.similarity import evaluate_on_database, evaluate_on_summary
from repro.predicates.dnf import col
from repro.tuplegen.generator import materialize_database
from repro.workload.query import Query, Workload


@pytest.fixture
def toy_package(toy_database):
    workload = Workload(name="toy", queries=[
        Query(query_id="fig1", root="R", relations=("R", "S", "T"),
              filters={"S": col("A").between(20, 60), "T": col("C").between(2, 3)}),
        Query(query_id="q2", root="R", relations=("R", "S"),
              filters={"S": col("B") < 25}),
        Query(query_id="q3", root="S", relations=("S",),
              filters={"S": (col("A") >= 50).conjoin(col("B") >= 10)}),
    ])
    return toy_database, extract_constraints(toy_database, workload)


class TestHydraEndToEnd:
    def test_constraints_satisfied_on_materialised_database(self, toy_package):
        toy_db, package = toy_package
        hydra = Hydra(toy_db.schema)
        result = hydra.build_summary(package.constraints)
        synthetic = materialize_database(result.summary, toy_db.schema)
        report = evaluate_on_database(package.constraints, synthetic)
        # the toy scenario has large relations, so the additive integrity
        # error is negligible: everything within 2%.
        assert report.fraction_within(0.02) == 1.0
        assert report.fraction_negative() == 0.0

    def test_summary_evaluation_matches_database_evaluation(self, toy_package):
        toy_db, package = toy_package
        result = Hydra(toy_db.schema).build_summary(package.constraints)
        synthetic = materialize_database(result.summary, toy_db.schema)
        on_db = evaluate_on_database(package.constraints, synthetic)
        on_summary = evaluate_on_summary(package.constraints, result.summary, toy_db.schema)
        for a, b in zip(on_db.results, on_summary.results):
            assert a.actual == b.actual

    def test_summary_size_independent_of_data_scale(self, toy_package):
        """Scaling every cardinality by 1000x must not change the number of
        summary rows — only the counts inside them (Section 7.4)."""
        toy_db, package = toy_package
        hydra = Hydra(toy_db.schema)
        small = hydra.build_summary(package.constraints).summary
        scaled = scale_constraints(package.constraints, 1000.0)
        big = Hydra(toy_db.schema).build_summary(scaled).summary
        for relation in small.relations:
            assert len(big.relation(relation)) <= len(small.relation(relation)) + 2
        assert big.total_rows() >= 999 * small.total_rows() // 1000 * 1000 // 1000
        assert big.nbytes() <= small.nbytes() * 2

    def test_lp_variable_counts_reported(self, toy_package):
        toy_db, package = toy_package
        result = Hydra(toy_db.schema).build_summary(package.constraints)
        assert result.lp_variable_counts["R"] >= 1
        assert result.lp_seconds() >= 0.0
        assert result.summary.timings["total_seconds"] > 0.0

    def test_lp_seconds_fit_inside_the_build(self, small_tpcds_schema,
                                             small_tpcds_constraints):
        """Solves overlap formulation, so the LP time is formulation plus
        the wait after the last submit — never more than the build."""
        result = Hydra(small_tpcds_schema).build_summary(small_tpcds_constraints)
        timings = result.summary.timings
        assert 0.0 < timings["lp_seconds"] <= timings["total_seconds"]
        assert result.lp_seconds() == pytest.approx(timings["lp_seconds"])
        assert timings["lp_wall_seconds"] == result.lp_wall_seconds

    def test_grid_strategy_ablation(self, toy_package):
        """Running the Hydra pipeline with grid partitioning still satisfies
        the constraints on this small example (it is just far bigger)."""
        toy_db, package = toy_package
        hydra = Hydra(toy_db.schema, RegenConfig(strategy="grid"))
        result = hydra.build_summary(package.constraints)
        region = Hydra(toy_db.schema).build_summary(package.constraints)
        assert sum(result.lp_variable_counts.values()) >= sum(
            region.lp_variable_counts.values()
        )


class TestDataSynthBaseline:
    def test_generates_database_and_respects_sizes(self, toy_package):
        toy_db, package = toy_package
        result = DataSynth(toy_db.schema, DataSynthConfig(seed=3)).generate(package.constraints)
        report = evaluate_on_database(package.constraints, result.database)
        # sampling is noisy but must stay in the right ballpark
        assert report.fraction_within(0.35) >= 0.8
        assert result.database.table("R").num_rows >= 80_000

    def test_lp_variable_counts_at_least_hydra(self, toy_package):
        toy_db, package = toy_package
        ds_counts = DataSynth(toy_db.schema).count_lp_variables(package.constraints)
        hydra_counts = Hydra(toy_db.schema).count_lp_variables(package.constraints)
        for relation, count in hydra_counts.items():
            assert ds_counts[relation] >= count

    def test_grid_blowup_raises(self, small_tpcds_schema, small_tpcds_database):
        from repro.benchdata.tpcds import complex_workload
        workload = complex_workload(small_tpcds_schema, num_queries=40, seed=5)
        package = extract_constraints(small_tpcds_database, workload)
        counts = DataSynth(small_tpcds_schema).count_lp_variables(package.constraints)
        # Pick a ceiling below the largest grid so the formulation must fail,
        # mirroring the solver crash the paper reports for WLc.
        ceiling = max(2, max(counts.values()) // 2)
        baseline = DataSynth(small_tpcds_schema,
                             DataSynthConfig(max_grid_variables=ceiling))
        with pytest.raises(LPTooLargeError):
            baseline.generate(package.constraints)


class TestSmallTpcdsEndToEnd:
    def test_simple_workload_regeneration(self, small_tpcds_schema, small_tpcds_database,
                                          small_tpcds_constraints):
        result = Hydra(small_tpcds_schema).build_summary(small_tpcds_constraints)
        report = evaluate_on_summary(small_tpcds_constraints, result.summary,
                                     small_tpcds_schema)
        # At this miniature scale the dimension tables are tiny, so the
        # additive integrity error is relatively visible; the bulk of the
        # constraints must still be matched closely.
        assert report.fraction_within(0.5) >= 0.75
        assert result.summary.nbytes() < 200_000
