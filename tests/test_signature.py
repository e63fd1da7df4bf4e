"""Tests for the signature-based partitioner: it must produce exactly the
same labelled regions as the box-geometry reference implementation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.errors import PartitionBudgetError
from repro.partition.box import Box
from repro.partition.grid import grid_intervals, grid_partition, grid_signatures
from repro.partition.region import optimal_partition
from repro.partition.signature import (
    partition_signatures,
    shared_segments_from_constraints,
)
from tests.test_partition import random_constraints


class TestSignaturePartitioning:
    def test_person_example_variables(self, person_domains, person_constraints):
        partition = partition_signatures(
            ("age", "salary"), person_domains, person_constraints,
            constraint_indices=[0, 1, 2], shared_segments={},
        )
        assert len(partition) == 4
        variables = list(partition.variables(range(len(partition))))
        labels = {label for _, label, _ in variables}
        assert labels == {
            frozenset({0, 2}), frozenset({0, 1, 2}), frozenset({1, 2}), frozenset({2}),
        }
        # every representative corner satisfies exactly its label
        for intervals, label, _ in variables:
            corner = {a: iv.lo for a, iv in intervals.items()}
            for index, constraint in enumerate(person_constraints):
                assert constraint.predicate.evaluate(corner) == (index in label)

    def test_shared_segment_refinement_splits_variables(self, person_domains, person_constraints):
        segments = shared_segments_from_constraints(
            "age", person_domains["age"], person_constraints
        )
        partition = partition_signatures(
            ("age", "salary"), person_domains, person_constraints,
            constraint_indices=[0, 1, 2], shared_segments={"age": segments},
        )
        # refinement along age can only increase the variable count
        assert len(partition) >= 4
        for _, _, cell in partition.variables(range(len(partition))):
            assert cell.keys() == {"age"}

    def test_budget_abort(self, person_domains, person_constraints):
        segments = shared_segments_from_constraints(
            "age", person_domains["age"], person_constraints
        )
        with pytest.raises(PartitionBudgetError):
            partition_signatures(
                ("age", "salary"), person_domains, person_constraints,
                constraint_indices=[0, 1, 2], shared_segments={"age": segments},
                max_states=2,
            )

    def test_only_size_constraint(self, person_domains, person_constraints):
        size_only = [person_constraints[2]]
        partition = partition_signatures(
            ("age",), person_domains, size_only, [0], {},
        )
        assert len(partition) == 1
        assert [label for _, label, _ in partition.variables([0])] == [frozenset({0})]


@given(random_constraints())
@settings(max_examples=60, deadline=None)
def test_signature_labels_match_box_geometry(data):
    attrs, domains, constraints = data
    regions = optimal_partition(attrs, domains, constraints)
    partition = partition_signatures(attrs, domains, constraints,
                                     list(range(len(constraints))), {})
    assert {r.label for r in regions} == {
        label for _, label, _ in partition.variables(range(len(partition)))}
    assert len(regions) == len(partition)


@given(random_constraints())
@settings(max_examples=60, deadline=None)
def test_grid_signatures_match_grid_boxes(data):
    """The grid's arrays read back, cell by cell and in order, as the boxes
    of the materialised grid, each labelled by box geometry."""
    attrs, domains, constraints = data
    boxes = grid_partition(attrs, domains, constraints)
    partition = grid_signatures(attrs, domains, constraints, constraints,
                                list(range(len(constraints))), {attrs[0]})
    variables = list(partition.variables(range(len(partition))))
    assert len(variables) == len(boxes)
    first = grid_intervals(attrs, domains, constraints)[attrs[0]]
    for box, (intervals, label, cell) in zip(boxes, variables):
        assert Box(intervals) == box
        assert label == frozenset(i for i, constraint in enumerate(constraints)
                                  if box.satisfies_predicate(constraint.predicate))
        assert cell == {attrs[0]: first.index(box.interval(attrs[0]))}
