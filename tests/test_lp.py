"""Tests for LP formulation (region and grid) and the feasibility solver."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import (
    Hydra,
    extract_constraints,
    generate_database,
    simple_workload,
    tpcds_schema,
)
from repro.constraints.cc import CardinalityConstraint
from repro.errors import InfeasibleLPError, LPError, LPTooLargeError
from repro.lp.formulate import (
    STRATEGY_GRID,
    STRATEGY_REGION,
    count_lp_variables,
    formulate_view_lp,
)
from repro.lp import solver as solver_module
from repro.lp.model import LPModel
from repro.lp.solver import LPSolver, ParallelLPSolver
from repro.predicates.dnf import DNFPredicate, col
from repro.predicates.interval import Interval
from repro.schema.relation import Attribute, Relation
from repro.schema.schema import Schema
from repro.views.preprocess import Preprocessor


@pytest.fixture
def person_schema() -> Schema:
    """A single-relation schema matching the Person example."""
    return Schema([
        Relation(
            name="person", primary_key="p_id", row_count=8000,
            attributes=[
                Attribute("age", Interval(0, 100)),
                Attribute("salary", Interval(0, 100_000)),
            ],
        )
    ])


@pytest.fixture
def person_task(person_schema):
    ccs = [
        CardinalityConstraint(relation="person", cardinality=1000,
                              predicate=(col("age") < 40).conjoin(col("salary") < 40_000)),
        CardinalityConstraint(relation="person", cardinality=2000,
                              predicate=col("age").between(20, 60).conjoin(
                                  col("salary").between(20_000, 60_000))),
        CardinalityConstraint(relation="person", cardinality=8000,
                              predicate=DNFPredicate.true()),
    ]
    return Preprocessor(person_schema).build_task("person", ccs)


class TestFormulation:
    def test_region_formulation_matches_figure_4b(self, person_task):
        view_lp = formulate_view_lp(person_task, strategy=STRATEGY_REGION)
        # Figure 4(b): four variables, three constraints with sums 1000/2000/8000.
        assert view_lp.num_variables == 4
        # one sub-view, so every row is a cardinality row
        model = view_lp.model
        assert sorted(model.rhs.tolist()) == [1000, 2000, 8000]
        assert sorted(np.diff(model.indptr).tolist()) == [2, 2, 4]

    def test_grid_formulation_matches_figure_4a(self, person_task):
        view_lp = formulate_view_lp(person_task, strategy=STRATEGY_GRID)
        assert view_lp.num_variables == 16
        assert sorted(np.diff(view_lp.model.indptr).tolist()) == [4, 4, 16]

    def test_count_without_materialisation(self, person_task):
        assert count_lp_variables(person_task, STRATEGY_REGION) == 4
        assert count_lp_variables(person_task, STRATEGY_GRID) == 16

    def test_grid_too_large_raises(self, person_task):
        with pytest.raises(LPTooLargeError):
            formulate_view_lp(person_task, strategy=STRATEGY_GRID, max_grid_variables=10)

    def test_unknown_strategy(self, person_task):
        with pytest.raises(LPError):
            formulate_view_lp(person_task, strategy="voronoi")

    def test_consistency_constraints_added_for_shared_attributes(self, toy_schema):
        pre = Preprocessor(toy_schema)
        ccs = [
            CardinalityConstraint(relation="R", cardinality=100,
                                  predicate=(col("A") >= 10).conjoin(col("B") >= 5)),
            CardinalityConstraint(relation="R", cardinality=60,
                                  predicate=(col("B") >= 5).conjoin(col("C") >= 1)),
            CardinalityConstraint(relation="R", cardinality=80_000,
                                  predicate=DNFPredicate.true()),
        ]
        task = pre.build_task("R", ccs)
        view_lp = formulate_view_lp(task)
        assert "B" in view_lp.aligned_attributes
        # the cardinality rows (one per in-scope CC per sub-view) come first;
        # the consistency rows after them have +1/-1 coefficients and rhs zero
        model = view_lp.model
        cardinality = sum(len(s.constraint_indices) for s in task.subviews)
        assert model.num_constraints > cardinality
        for row in range(cardinality, model.num_constraints):
            assert model.rhs[row] == 0
            coefficients = model.data[model.indptr[row]:model.indptr[row + 1]]
            assert set(coefficients.tolist()) <= {1.0, -1.0}


class TestSolver:
    def test_solves_person_lp_exactly(self, person_task):
        view_lp = formulate_view_lp(person_task)
        solution = LPSolver().solve(view_lp.model)
        assert solution.feasible
        assert solution.max_violation == 0.0
        a, b = view_lp.model.matrix()
        assert np.allclose(a.dot(solution.values.astype(float)), b)
        assert (solution.values >= 0).all()

    def test_empty_model(self):
        solution = LPSolver().solve(LPModel(name="empty"))
        assert solution.feasible
        assert solution.values.size == 0

    def test_continuous_fallback_used_above_variable_limit(self, person_task,
                                                           monkeypatch):
        view_lp = formulate_view_lp(person_task)
        monkeypatch.setattr(solver_module, "MILP_VARIABLE_LIMIT", 1)
        solution = LPSolver().solve(view_lp.model)
        assert solution.method == "linprog+l1"
        assert solution.max_violation <= 1.0

    def test_infeasible_constraints_reported_with_slack(self):
        # x0 = 10 and x0 = 20 cannot both hold; the solver should still
        # return a best-effort solution and flag it as not exactly feasible.
        model = LPModel(name="conflict", num_variables=1)
        model.add_constraint([0], 10)
        model.add_constraint([0], 20)
        solution = LPSolver(prefer_integer=False).solve(model)
        assert not solution.feasible
        assert solution.max_violation >= 5.0

    def test_constraint_validation(self):
        model = LPModel(name="m", num_variables=2)
        with pytest.raises(LPError):
            model.add_constraint([5], 1)
        with pytest.raises(LPError):
            model.add_constraint([0], -1)
        with pytest.raises(LPError):
            model.add_constraint([0, 1], 1, coefficients=[1.0])

    def test_matrix_cache_invalidated_by_new_constraints(self):
        model = LPModel(name="cached", num_variables=2)
        model.add_constraint([0], 5)
        a1, b1 = model.matrix()
        assert model.matrix()[0] is a1  # cached object returned
        model.add_constraint([1], 7)
        a2, b2 = model.matrix()
        assert a2.shape == (2, 2)
        assert b2.tolist() == [5.0, 7.0]


class TestSolverFallbackChain:
    """The documented escalation: exact MILP first, continuous + L1 slack
    when the model is too large, honest violation reporting when no exact
    solution exists, and a hard error only in strict mode."""

    def _person_model(self, person_task):
        return formulate_view_lp(person_task).model

    def test_milp_used_within_size_limit(self, person_task):
        solution = LPSolver().solve(self._person_model(person_task))
        assert solution.method == "milp"
        assert solution.max_violation == 0.0

    def test_size_limit_triggers_continuous_l1_path(self, person_task, monkeypatch):
        model = self._person_model(person_task)
        monkeypatch.setattr(solver_module, "MILP_VARIABLE_LIMIT",
                            model.num_variables - 1)
        solution = LPSolver().solve(model)
        assert solution.method == "linprog+l1"
        # the relaxation is integral here, so rounding loses nothing
        assert solution.max_violation == 0.0

    def test_decomposition_recovers_milp_below_component_limit(self, monkeypatch):
        # The whole model exceeds the MILP size limit, but each connected
        # component fits, so the parallel solver keeps the exact integral
        # path where the serial solver has to fall back to the continuous one.
        model = LPModel(name="blocks", num_variables=4)
        model.add_constraint([0, 1], 10)
        model.add_constraint([2, 3], 7)
        monkeypatch.setattr(solver_module, "MILP_VARIABLE_LIMIT", 3)
        serial = LPSolver().solve(model)
        assert serial.method == "linprog+l1"
        parallel = ParallelLPSolver(workers=2).solve(model)
        assert "milp" in parallel.method
        assert parallel.max_violation == 0.0

    def test_violation_reported_not_dropped_on_rounded_solutions(self):
        # sum of two variables = 7 with equal split forced by a consistency
        # row is integrally infeasible only under conflicting rhs; use
        # directly conflicting CCs to force non-zero slack.
        model = LPModel(name="conflict", num_variables=2)
        model.add_constraint([0, 1], 7)
        model.add_constraint([0, 1], 9)
        solution = LPSolver(prefer_integer=False).solve(model)
        assert not solution.feasible
        assert solution.max_violation >= 1.0  # surfaced, not silently dropped

    def test_infeasible_cc_set_raises_in_strict_mode(self):
        model = LPModel(name="conflict", num_variables=2)
        model.add_constraint([0, 1], 7)
        model.add_constraint([0, 1], 9)
        with pytest.raises(InfeasibleLPError):
            ParallelLPSolver(strict=True).solve(model)

    def test_exabyte_scale_rhs_still_solved(self):
        # Section 7.4 scales CCs to ~1e15 tuples; the continuous path must
        # return a near-exact point (rescuing HiGHS via rhs normalisation if
        # needed) instead of giving up.
        model = LPModel(name="exabyte", num_variables=3)
        model.add_constraint([0, 1], 4 * 10**14)
        model.add_constraint([1, 2], 3 * 10**14)
        solution = LPSolver(prefer_integer=False).solve(model)
        assert solution.max_violation <= 10  # tuples, out of 4e14

    def test_malformed_model_raises_infeasible_error(self):
        # NaN right-hand side makes even the slack LP unsolvable, which is
        # the "malformed model" branch of the continuous path.
        model = LPModel(name="nan", num_variables=1)
        model.add_constraint([0], 1)
        model.rhs[0] = float("nan")
        model._matrix_cache = None
        with pytest.raises(InfeasibleLPError):
            LPSolver(prefer_integer=False).solve(model)


def _model_of(rows: np.ndarray, rhs: np.ndarray) -> LPModel:
    model = LPModel(name="system", num_variables=rows.shape[1])
    for row, value in zip(rows, rhs):
        model.add_constraint(np.flatnonzero(row).tolist(), value)
    return model


@st.composite
def small_systems(draw):
    """A random 0/1 system of at most 8 columns and a right-hand side that is
    ``A x0`` for a non-negative integral ``x0`` ("planted"), for an ``x0``
    with a negative entry ("negative"), or a planted one with one row off
    by a half ("fractional")."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 12))
    rows = np.array(draw(st.lists(
        st.lists(st.booleans(), min_size=n, max_size=n).filter(any),
        min_size=m, max_size=m)), dtype=np.float64)
    kind = draw(st.sampled_from(["planted", "negative", "fractional"]))
    x0 = np.array(draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)),
                  dtype=np.float64)
    if kind == "negative":
        x0[draw(st.integers(0, n - 1))] = -draw(st.integers(1, 5))
    rhs = rows @ x0
    if kind == "fractional":
        rhs[draw(st.integers(0, m - 1))] += 0.5
    assume((rhs >= 0).all())
    return kind, rows, rhs


class TestUniqueRung:
    """The exact rung in front of the MILP: a tiny system of full column rank
    has at most one solution, so accepting it changes no output."""

    def test_bench_wls_components_skip_milp(self, monkeypatch):
        schema = tpcds_schema(scale_factor=0.0002, dimension_scale=0.01)
        constraints = extract_constraints(
            generate_database(schema, seed=1),
            simple_workload(schema, 110)).constraints
        calls = []
        milp = solver_module.optimize.milp

        def counting_milp(*args, **kwargs):
            calls.append(1)
            return milp(*args, **kwargs)

        monkeypatch.setattr(solver_module.optimize, "milp", counting_milp)
        hydra = Hydra(schema)
        result = hydra.build_summary(constraints)
        solved = hydra.solver.stats.components_solved
        assert solved - len(calls) >= 35, (solved, len(calls))
        assert any("unique" in report.solver_method
                   for report in result.view_reports.values())

    @settings(max_examples=150, deadline=None)
    @given(small_systems())
    def test_rung_returns_the_milp_point_or_declines(self, system):
        kind, rows, rhs = system
        model = _model_of(rows, rhs)
        n = model.num_variables
        full_rank = model.num_constraints >= n \
            and np.linalg.matrix_rank(rows) == n
        unique = LPSolver._solve_unique(model)
        solution = LPSolver().solve(model)
        milp = LPSolver()._solve_milp(model)
        if kind == "planted" and full_rank:
            assert unique is not None
        if not full_rank or kind != "planted":
            assert unique is None
        if unique is not None:
            assert milp is not None
            assert solution.method == "unique"
            assert np.array_equal(solution.values, milp.values)
            assert solution.max_violation == milp.max_violation == 0.0
        else:
            # The rung declined: the result is the unchanged MILP -> L1 chain's.
            parent = milp if milp is not None \
                else LPSolver()._solve_continuous(model)
            assert solution.method == parent.method
            assert np.array_equal(solution.values, parent.values)
            assert solution.feasible == parent.feasible
            assert solution.max_violation == parent.max_violation

    def test_continuous_solver_never_takes_the_rung(self, monkeypatch):
        # x0 = 3, x1 = 2, x0 + x1 = 5: full column rank, one solution.
        model = _model_of(np.array([[1, 0], [0, 1], [1, 1]], dtype=np.float64),
                          np.array([3.0, 2.0, 5.0]))
        assert LPSolver().solve(model).method == "unique"

        def refuse(model):
            raise AssertionError("the continuous solver reached the unique rung")

        monkeypatch.setattr(LPSolver, "_solve_unique", staticmethod(refuse))
        solution = LPSolver(prefer_integer=False).solve(model)
        assert solution.method == "linprog+l1"
        assert solution.values.tolist() == [3, 2]
        stitched = ParallelLPSolver(workers=1, prefer_integer=False).solve(model)
        assert "unique" not in stitched.method
