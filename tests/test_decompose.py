"""Tests for the constraint-graph decomposer, the component solution cache
and the :class:`~repro.lp.solver.ParallelLPSolver`."""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RegenConfig
from repro.errors import InfeasibleLPError, LPError
from repro.hydra.pipeline import Hydra
from repro.lp.decompose import (
    component_key,
    decompose_model,
    stitch_solutions,
)
from repro.lp.formulate import formulate_view_lp
from repro.lp.model import LPModel
from repro.lp.solver import LPSolver, ParallelLPSolver
from repro.views.preprocess import Preprocessor


def oracle_decompose(model: LPModel) -> Tuple[List[Dict[str, object]], List[int], List[int]]:
    """Reference decomposer: union-find over the model's rows, building each
    component's local model row by row.  Returns the components (largest
    first, ties in order of first row) and the free variables and
    variable-free rows."""
    rows = [(model.indices[model.indptr[i]:model.indptr[i + 1]].tolist(),
             model.data[model.indptr[i]:model.indptr[i + 1]].tolist(), model.rhs[i])
            for i in range(model.num_constraints)]
    parent = list(range(model.num_variables))

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for variables, _, _ in rows:
        for other in variables[1:]:
            root, other_root = find(variables[0]), find(other)
            if root != other_root:
                parent[other_root] = root
    constrained: Dict[int, List[int]] = {}
    for row, (variables, _, _) in enumerate(rows):
        if variables:
            constrained.setdefault(find(variables[0]), []).append(row)
    members: Dict[int, List[int]] = {}
    free: List[int] = []
    for variable in range(model.num_variables):
        root = find(variable)
        if root in constrained:
            members.setdefault(root, []).append(variable)
        else:
            free.append(variable)
    components = []
    for root, component_rows in constrained.items():
        variables = sorted(members[root])
        local_of = {g: l for l, g in enumerate(variables)}
        local = LPModel(name="oracle", num_variables=len(variables))
        for row in component_rows:
            row_variables, coefficients, rhs = rows[row]
            local.add_constraint([local_of[v] for v in row_variables], rhs, coefficients)
        components.append({"variables": variables, "rows": component_rows, "model": local})
    components.sort(key=lambda c: len(c["variables"]), reverse=True)
    orphans = [row for row, (variables, _, _) in enumerate(rows) if not variables]
    return components, free, orphans


def assert_matches_oracle(model: LPModel) -> None:
    expected, free, orphans = oracle_decompose(model)
    decomposition = decompose_model(model)
    assert len(decomposition.components) == len(expected)
    for component, oracle in zip(decomposition.components, expected):
        assert component.variable_indices.tolist() == oracle["variables"]
        assert component.constraint_indices.tolist() == oracle["rows"]
        (a, b), (oracle_a, oracle_b) = component.model.matrix(), oracle["model"].matrix()
        assert a.shape == oracle_a.shape
        for got, want in ((a.indptr, oracle_a.indptr), (a.indices, oracle_a.indices),
                          (a.data, oracle_a.data), (b, oracle_b)):
            assert np.array_equal(got, want)
        assert component.key == component_key(oracle["model"])
    assert decomposition.free_variables.tolist() == free
    assert decomposition.orphan_constraints.tolist() == orphans
    assert decomposition.orphan_violation == max(
        (abs(model.rhs[row]) for row in orphans), default=0.0)


@st.composite
def sparse_models(draw) -> LPModel:
    """Random sparse equality systems with variable-free rows, free
    variables, one-variable rows, repeated rows and unsorted row entries."""
    num_variables = draw(st.integers(0, 12))
    model = LPModel(name="random", num_variables=num_variables)
    row = st.tuples(
        st.lists(st.integers(0, max(num_variables - 1, 0)), max_size=5, unique=True)
        if num_variables else st.just([]),
        st.integers(0, 9))
    rows = draw(st.lists(row, max_size=10))
    for variables, rhs in rows + draw(st.lists(st.sampled_from(rows), max_size=3)
                                      if rows else st.just([])):
        coefficients = draw(st.lists(st.sampled_from([1.0, -1.0, 2.0]),
                                     min_size=len(variables), max_size=len(variables)))
        model.add_constraint(variables, rhs, coefficients)
    return model


@given(sparse_models())
@settings(max_examples=200, deadline=None)
def test_decomposition_matches_union_find_oracle(model):
    assert_matches_oracle(model)


def test_view_lps_decompose_like_the_oracle(small_tpcds_schema, small_tpcds_constraints):
    preprocessor = Preprocessor(small_tpcds_schema)
    for relation, ccs in small_tpcds_constraints.by_relation().items():
        task = preprocessor.build_task(relation, ccs)
        if task.subviews:
            assert_matches_oracle(formulate_view_lp(task).model)


def two_block_model() -> LPModel:
    """A model with two independent blocks, one free variable and one
    variable-free (orphan) constraint."""
    model = LPModel(name="blocks", num_variables=5)
    model.add_constraint([0, 1], 10)
    model.add_constraint([1], 4)
    model.add_constraint([2, 3], 7)
    model.add_constraint([], 0)
    return model


class TestDecomposer:
    def test_components_are_independent_blocks(self):
        decomposition = decompose_model(two_block_model())
        memberships = sorted(c.variable_indices.tolist() for c in decomposition.components)
        assert memberships == [[0, 1], [2, 3]]
        assert decomposition.free_variables.tolist() == [4]
        assert decomposition.orphan_constraints.tolist() == [3]

    def test_components_sorted_largest_first(self):
        model = LPModel(name="sizes", num_variables=6)
        model.add_constraint([0], 1)
        model.add_constraint([1, 2, 3], 5)
        model.add_constraint([4, 5], 2)
        decomposition = decompose_model(model)
        sizes = [c.num_variables for c in decomposition.components]
        assert sizes == sorted(sizes, reverse=True)

    def test_chained_constraints_merge_components(self):
        # 0-1 and 1-2 share variable 1 -> a single component {0, 1, 2}.
        model = LPModel(name="chain", num_variables=3)
        model.add_constraint([0, 1], 5)
        model.add_constraint([1, 2], 6)
        decomposition = decompose_model(model)
        assert len(decomposition.components) == 1
        assert decomposition.components[0].variable_indices.tolist() == [0, 1, 2]

    def test_local_models_are_self_contained(self):
        decomposition = decompose_model(two_block_model())
        for component in decomposition.components:
            local = component.model
            assert local.num_variables == len(component.variable_indices)
            assert ((0 <= local.indices) & (local.indices < local.num_variables)).all()

    def test_nonzero_orphan_constraint_flags_infeasibility(self):
        model = LPModel(name="orphan", num_variables=1)
        model.add_constraint([0], 3)
        model.add_constraint([], 5)
        decomposition = decompose_model(model)
        assert decomposition.orphan_violation == 5.0
        solutions = [LPSolver().solve(c.model) for c in decomposition.components]
        stitched = stitch_solutions(decomposition, solutions)
        assert not stitched.feasible
        assert stitched.max_violation >= 5.0

    def test_stitch_requires_matching_solutions(self):
        decomposition = decompose_model(two_block_model())
        with pytest.raises(LPError):
            stitch_solutions(decomposition, [])

    def test_stitch_recomposes_feasible_solution(self):
        model = two_block_model()
        decomposition = decompose_model(model)
        solutions = [LPSolver().solve(c.model) for c in decomposition.components]
        stitched = stitch_solutions(decomposition, solutions)
        a, b = model.matrix()
        assert np.abs(a.dot(stitched.values.astype(float)) - b).max() == 0.0
        assert stitched.values[4] == 0  # free variable pinned to zero


class TestComponentKey:
    def test_key_ignores_names_and_tags(self):
        # the key is the (A, b) system's alone: not the name, the order in
        # which a row lists its variables or how the rows were appended
        one = LPModel(name="one", num_variables=2)
        one.add_constraint([0, 1], 9)
        two = LPModel(name="two", num_variables=2)
        two.add_rows([2], [1, 0], [9])
        assert component_key(one) == component_key(two)

    def test_key_distinguishes_rhs_and_structure(self):
        base = LPModel(name="m", num_variables=2)
        base.add_constraint([0, 1], 9)
        different_rhs = LPModel(name="m", num_variables=2)
        different_rhs.add_constraint([0, 1], 8)
        different_vars = LPModel(name="m", num_variables=2)
        different_vars.add_constraint([0], 9)
        keys = {component_key(base), component_key(different_rhs),
                component_key(different_vars)}
        assert len(keys) == 3


class TestParallelLPSolver:
    def test_matches_serial_solver_on_person_lp(self):
        from repro.constraints.cc import CardinalityConstraint
        from repro.predicates.dnf import DNFPredicate, col
        from repro.predicates.interval import Interval
        from repro.schema.relation import Attribute, Relation
        from repro.schema.schema import Schema

        person_schema = Schema([
            Relation(
                name="person", primary_key="p_id", row_count=8000,
                attributes=[
                    Attribute("age", Interval(0, 100)),
                    Attribute("salary", Interval(0, 100_000)),
                ],
            )
        ])
        ccs = [
            CardinalityConstraint(relation="person", cardinality=1000,
                                  predicate=(col("age") < 40).conjoin(col("salary") < 40_000)),
            CardinalityConstraint(relation="person", cardinality=8000,
                                  predicate=DNFPredicate.true()),
        ]
        task = Preprocessor(person_schema).build_task("person", ccs)
        view_lp = formulate_view_lp(task)
        parallel = ParallelLPSolver(workers=2).solve(view_lp.model)
        serial = LPSolver().solve(view_lp.model)
        a, b = view_lp.model.matrix()
        for solution in (parallel, serial):
            assert solution.feasible
            assert solution.max_violation == 0.0
            assert np.abs(a.dot(solution.values.astype(float)) - b).max() == 0.0

    def test_repeated_solve_hits_cache(self):
        solver = ParallelLPSolver(workers=2, cache_size=16)
        model = two_block_model()
        first = solver.solve(model)
        assert solver.stats.cache_hits == 0
        assert solver.stats.cache_misses == 2
        second = solver.solve(model)
        assert solver.stats.cache_hits == 2
        assert solver.stats.components_solved == 2  # nothing re-solved
        assert np.array_equal(first.values, second.values)
        assert second.solve_seconds == 0.0  # cache hits cost no solve time

    def test_cache_disabled(self):
        solver = ParallelLPSolver(workers=1, cache_size=0)
        model = two_block_model()
        solver.solve(model)
        solver.solve(model)
        assert solver.stats.cache_hits == 0
        assert solver.stats.components_solved == 4

    def test_cache_evicts_least_recently_used(self):
        solver = ParallelLPSolver(workers=1, cache_size=1)
        solver.solve(two_block_model())  # two components, capacity one
        assert solver.cache_info["size"] == 1

    def test_solve_many_deduplicates_across_models(self):
        solver = ParallelLPSolver(workers=2, cache_size=16)
        solutions = solver.solve_many([two_block_model(), two_block_model()])
        assert len(solutions) == 2
        assert solver.stats.components_solved == 2  # shared across the batch
        assert np.array_equal(solutions[0].values, solutions[1].values)

    def test_strict_mode_raises_on_conflicting_ccs(self):
        model = LPModel(name="conflict", num_variables=1)
        model.add_constraint([0], 10)
        model.add_constraint([0], 20)
        with pytest.raises(InfeasibleLPError):
            ParallelLPSolver(workers=2, strict=True).solve(model)

    def test_non_strict_mode_reports_violation(self):
        model = LPModel(name="conflict", num_variables=1)
        model.add_constraint([0], 10)
        model.add_constraint([0], 20)
        solution = ParallelLPSolver(workers=2).solve(model)
        assert not solution.feasible
        assert solution.max_violation >= 5.0

    def test_rejects_bad_configuration(self):
        with pytest.raises(LPError):
            ParallelLPSolver(workers=0)
        with pytest.raises(LPError):
            ParallelLPSolver(cache_size=-1)

    def test_empty_model(self):
        solution = ParallelLPSolver().solve(LPModel(name="empty"))
        assert solution.feasible
        assert solution.values.size == 0


def one_block_model() -> LPModel:
    """A model whose only component is the first block of
    :func:`two_block_model`."""
    model = LPModel(name="first-block", num_variables=2)
    model.add_constraint([0, 1], 10)
    model.add_constraint([1], 4)
    return model


class TestSolverBatch:
    def test_component_shared_by_two_submits_is_solved_once(self):
        solver = ParallelLPSolver(workers=2, cache_size=16)
        with solver.batch() as batch:
            batch.submit(two_block_model())
            batch.submit(one_block_model())
            both, first = batch.results()
        assert solver.stats.components_solved == 2
        assert solver.stats.cache_misses == 2
        assert np.array_equal(both.values[:2], first.values)

    def test_second_batch_is_all_cache_hits(self):
        solver = ParallelLPSolver(workers=2, cache_size=16)
        with solver.batch() as batch:
            batch.submit(two_block_model())
            cold = batch.results()
        with solver.batch() as batch:
            decomposition = batch.submit(two_block_model())
            warm = batch.results()
        assert solver.stats.components_solved == 2
        assert solver.stats.cache_hits == len(decomposition.components) == 2
        assert np.array_equal(cold[0].values, warm[0].values)
        assert warm[0].solve_seconds == 0.0

    def test_strict_raises_from_results(self):
        model = LPModel(name="conflict", num_variables=1)
        model.add_constraint([0], 10)
        model.add_constraint([0], 20)
        with ParallelLPSolver(workers=2, strict=True).batch() as batch:
            batch.submit(model)
            with pytest.raises(InfeasibleLPError):
                batch.results()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_exception_propagates_and_leaves_no_thread(
            self, workers, monkeypatch):
        def broken(self, model):
            raise RuntimeError("solver crashed")

        monkeypatch.setattr(LPSolver, "solve", broken)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="solver crashed"):
            with ParallelLPSolver(workers=workers).batch() as batch:
                batch.submit(two_block_model())
                batch.submit(one_block_model())
                batch.results()
        assert set(threading.enumerate()) <= before

    def test_early_exit_leaves_no_thread(self):
        before = set(threading.enumerate())
        with pytest.raises(KeyError):
            with ParallelLPSolver(workers=2).batch() as batch:
                batch.submit(two_block_model())
                raise KeyError("caller failed before results()")
        assert set(threading.enumerate()) <= before

    def test_solve_many_matches_component_wise_solves(self):
        """solve_many stitches exactly the per-component LPSolver solutions."""
        models = [two_block_model(), one_block_model(), LPModel(name="empty")]
        solutions = ParallelLPSolver(workers=2).solve_many(models)
        assert len(solutions) == len(models)
        for model, solution in zip(models, solutions):
            decomposition = decompose_model(model)
            expected = stitch_solutions(decomposition, [
                LPSolver().solve(c.model) for c in decomposition.components])
            assert np.array_equal(solution.values, expected.values)
            assert solution.method == expected.method
            assert solution.max_violation == expected.max_violation
        assert solutions[0].values.tolist()[:2] == [6, 4]


class TestTierOneWorkloads:
    """Component solutions must recompose to feasible full solutions on the
    tier-1 client environments (TPC-DS-like and JOB-like)."""

    def _check_views(self, schema, constraints):
        preprocessor = Preprocessor(schema)
        solver = ParallelLPSolver(workers=2)
        by_relation = constraints.by_relation()
        checked = 0
        for relation, ccs in by_relation.items():
            task = preprocessor.build_task(relation, ccs)
            if not task.subviews:
                continue
            view_lp = formulate_view_lp(task)
            decomposition = decompose_model(view_lp.model)
            solution = solver.solve(view_lp.model)
            a, b = view_lp.model.matrix()
            residual = np.abs(a.dot(solution.values.astype(float)) - b).max() if b.size else 0.0
            assert solution.max_violation == 0.0, relation
            assert residual == 0.0, relation
            assert (solution.values >= 0).all()
            # decomposition covers every variable exactly once
            seen = sorted(
                v for c in decomposition.components for v in c.variable_indices
            ) + sorted(decomposition.free_variables)
            assert sorted(seen) == list(range(view_lp.model.num_variables))
            checked += 1
        assert checked > 0

    def test_tpcds_views_recompose_feasibly(self, small_tpcds_schema,
                                            small_tpcds_constraints):
        self._check_views(small_tpcds_schema, small_tpcds_constraints)

    def test_job_views_recompose_feasibly(self, small_job_schema,
                                          small_job_constraints):
        self._check_views(small_job_schema, small_job_constraints)

    def test_hydra_rebuild_hits_cache(self, small_tpcds_schema, small_tpcds_constraints):
        hydra = Hydra(small_tpcds_schema, RegenConfig(workers=2))
        first = hydra.build_summary(small_tpcds_constraints)
        components = hydra.solver.stats.components_solved
        assert components > 0
        second = hydra.build_summary(small_tpcds_constraints)
        assert hydra.solver.stats.components_solved == components  # all cached
        assert hydra.solver.stats.cache_hits >= components
        assert second.solver_stats["cache_hits"] >= components
        for relation in first.summary.relations:
            assert first.summary.relation(relation).rows == \
                second.summary.relation(relation).rows
