"""Tests for LP formulation (region and grid) and the feasibility solver."""

from __future__ import annotations

import numpy as np
import pytest

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
