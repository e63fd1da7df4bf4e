"""Tests for region partitioning (Algorithms 1/2), grid partitioning and the
worked Person example of Figures 3/4."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LPTooLargeError, PartitionError
from repro.partition.box import Box, conjunct_boxes
from repro.partition.grid import attribute_cut_points, grid_cell_count, grid_partition
from repro.partition.region import (
    optimal_partition,
    optimal_partition_paper,
    valid_partition,
)
from repro.predicates.conjunct import Conjunct, box_overlaps
from repro.predicates.dnf import DNFPredicate
from repro.predicates.interval import Interval, IntervalSet
from repro.views.preprocess import ViewConstraint


# ---------------------------------------------------------------------- #
# Box primitives
# ---------------------------------------------------------------------- #
class TestBox:
    def test_volume_and_corner(self):
        box = Box({"a": Interval(0, 4), "b": Interval(10, 12)})
        assert box.volume() == 8
        assert box.corner() == {"a": 0, "b": 10}
        assert box.contains_point({"a": 3, "b": 11})
        assert not box.contains_point({"a": 4, "b": 11})

    def test_intersect_and_subtract_partition_volume(self):
        outer = Box({"a": Interval(0, 10), "b": Interval(0, 10)})
        inner = Box({"a": Interval(2, 5), "b": Interval(3, 7)})
        cap = outer.intersect(inner)
        pieces = outer.subtract(cap)
        assert cap.volume() + sum(p.volume() for p in pieces) == outer.volume()
        # pieces are pairwise disjoint
        for i, p in enumerate(pieces):
            for q in pieces[i + 1:]:
                assert p.intersect(q) is None

    def test_subtract_disjoint_returns_self(self):
        a = Box({"x": Interval(0, 5)})
        b = Box({"x": Interval(7, 9)})
        assert a.subtract(b) == [a]

    def test_split_along(self):
        box = Box({"a": Interval(0, 10), "b": Interval(0, 2)})
        pieces = box.split_along("a", [3, 7])
        assert len(pieces) == 3
        assert sum(p.volume() for p in pieces) == box.volume()

    def test_satisfies_predicate(self):
        box = Box({"a": Interval(0, 5), "b": Interval(10, 20)})
        pred = DNFPredicate.of(Conjunct({"a": IntervalSet.single(0, 10)}))
        assert box.satisfies_predicate(pred)
        assert box.satisfies_predicate(DNFPredicate.true())
        pred2 = DNFPredicate.of(Conjunct({"a": IntervalSet.single(3, 10)}))
        assert not box.satisfies_predicate(pred2)

    def test_conjunct_boxes_expands_in_lists(self):
        universe = Box({"a": Interval(0, 100), "b": Interval(0, 100)})
        conjunct = Conjunct({
            "a": IntervalSet([Interval(0, 5), Interval(10, 15)]),
            "b": IntervalSet.single(0, 50),
        })
        boxes = conjunct_boxes(conjunct, universe)
        assert len(boxes) == 2
        assert sum(b.volume() for b in boxes) == 10 * 50

    def test_conjunct_boxes_empty_when_outside_domain(self):
        universe = Box({"a": Interval(0, 10)})
        conjunct = Conjunct({"a": IntervalSet.single(50, 60)})
        assert conjunct_boxes(conjunct, universe) == []


# ---------------------------------------------------------------------- #
# The Person example (Figures 3 and 4)
# ---------------------------------------------------------------------- #
class TestPersonExample:
    def test_region_partitioning_yields_four_regions(self, person_domains, person_constraints):
        regions = optimal_partition(("age", "salary"), person_domains, person_constraints)
        assert len(regions) == 4

    def test_grid_partitioning_yields_sixteen_cells(self, person_domains, person_constraints):
        count = grid_cell_count(("age", "salary"), person_domains, person_constraints)
        assert count == 16
        cells = grid_partition(("age", "salary"), person_domains, person_constraints)
        assert len(cells) == 16

    def test_labels_match_figure_4b(self, person_domains, person_constraints):
        regions = optimal_partition(("age", "salary"), person_domains, person_constraints)
        labels = {frozenset(r.label) for r in regions}
        # constraint indices: 0 = C1 (y1+y2), 1 = C2 (y2+y3), 2 = total
        assert labels == {
            frozenset({0, 2}),        # y1: inside C1 only
            frozenset({0, 1, 2}),     # y2: inside both
            frozenset({1, 2}),        # y3: inside C2 only
            frozenset({2}),           # y4: the rest
        }

    def test_paper_algorithm_agrees_with_production_implementation(
            self, person_domains, person_constraints):
        fast = optimal_partition(("age", "salary"), person_domains, person_constraints)
        paper = optimal_partition_paper(("age", "salary"), person_domains, person_constraints)
        assert {r.label for r in fast} == {r.label for r in paper}
        fast_volumes = {r.label: r.volume() for r in fast}
        paper_volumes = {r.label: r.volume() for r in paper}
        assert fast_volumes == paper_volumes

    def test_regions_cover_the_domain_exactly(self, person_domains, person_constraints):
        regions = optimal_partition(("age", "salary"), person_domains, person_constraints)
        total = sum(r.volume() for r in regions)
        assert total == 100 * 100_000


# ---------------------------------------------------------------------- #
# Valid partition (Algorithm 2)
# ---------------------------------------------------------------------- #
class TestValidPartition:
    def test_blocks_do_not_split_any_subconstraint(self):
        domains = {"a": Interval(0, 100), "b": Interval(0, 100)}
        sub_constraints = [
            Conjunct({"a": IntervalSet.single(0, 40), "b": IntervalSet.single(30, 70)}),
            Conjunct({"a": IntervalSet.single(20, 60)}),
        ]
        blocks = valid_partition(("a", "b"), domains, sub_constraints)
        assert sum(b.volume() for b in blocks) == 100 * 100
        for block in blocks:
            for conjunct in sub_constraints:
                # no sub-constraint may split a block: either every point
                # satisfies it or none does
                assert block.satisfies_conjunct(conjunct) \
                    or not box_overlaps(conjunct, block.intervals)

    def test_empty_attribute_list_rejected(self):
        with pytest.raises(PartitionError):
            optimal_partition((), {}, [])


# ---------------------------------------------------------------------- #
# Grid partitioning
# ---------------------------------------------------------------------- #
class TestGridPartitioning:
    def test_cut_points_from_constraints(self, person_constraints):
        points = attribute_cut_points("age", person_constraints)
        assert points == [0, 20, 40, 60]

    def test_cell_count_is_product_without_materialisation(self):
        domains = {"a": Interval(0, 1_000_000), "b": Interval(0, 1_000_000)}
        constraints = [
            ViewConstraint(predicate=DNFPredicate.of(Conjunct({
                "a": IntervalSet.point(i * 10), "b": IntervalSet.point(i * 7)
            })), cardinality=1)
            for i in range(100)
        ]
        count = grid_cell_count(("a", "b"), domains, constraints)
        assert count > 10_000  # ~201 x 201
        with pytest.raises(LPTooLargeError):
            grid_partition(("a", "b"), domains, constraints, max_cells=1000)

    def test_grid_cells_partition_domain(self, person_domains, person_constraints):
        cells = grid_partition(("age", "salary"), person_domains, person_constraints)
        assert sum(c.volume() for c in cells) == 100 * 100_000


# ---------------------------------------------------------------------- #
# property-based tests: the two implementations agree and regions are valid
# ---------------------------------------------------------------------- #
@st.composite
def random_constraints(draw):
    num_attrs = draw(st.integers(1, 3))
    attrs = [f"x{i}" for i in range(num_attrs)]
    domains = {a: Interval(0, 20) for a in attrs}
    constraints = []
    for _ in range(draw(st.integers(1, 5))):
        conjuncts = []
        for _ in range(draw(st.integers(1, 2))):
            constrained = draw(st.lists(st.sampled_from(attrs), min_size=1,
                                        max_size=num_attrs, unique=True))
            restriction = {}
            for a in constrained:
                lo = draw(st.integers(0, 18))
                hi = draw(st.integers(lo + 1, 20))
                restriction[a] = IntervalSet.single(lo, hi)
            conjuncts.append(Conjunct(restriction))
        constraints.append(ViewConstraint(predicate=DNFPredicate(conjuncts), cardinality=1))
    constraints.append(ViewConstraint(predicate=DNFPredicate.true(), cardinality=10))
    return attrs, domains, constraints


@given(random_constraints())
@settings(max_examples=60, deadline=None)
def test_optimal_partition_matches_paper_algorithm(data):
    attrs, domains, constraints = data
    fast = optimal_partition(attrs, domains, constraints)
    paper = optimal_partition_paper(attrs, domains, constraints)
    assert {r.label for r in fast} == {r.label for r in paper}
    assert {r.label: r.volume() for r in fast} == {r.label: r.volume() for r in paper}


@given(random_constraints())
@settings(max_examples=60, deadline=None)
def test_optimal_partition_is_a_valid_partition(data):
    attrs, domains, constraints = data
    regions = optimal_partition(attrs, domains, constraints)
    # regions cover the domain exactly once
    total_volume = 1
    for a in attrs:
        total_volume *= domains[a].width
    assert sum(r.volume() for r in regions) == total_volume
    # every box of a region satisfies exactly the constraints in the label
    for region in regions:
        for box in region.boxes:
            for index, constraint in enumerate(constraints):
                satisfied = box.satisfies_predicate(constraint.predicate)
                assert satisfied == (index in region.label)


@given(random_constraints())
@settings(max_examples=40, deadline=None)
def test_region_count_never_exceeds_grid_count(data):
    attrs, domains, constraints = data
    regions = optimal_partition(attrs, domains, constraints)
    grid = grid_cell_count(attrs, domains, constraints)
    assert len(regions) <= max(grid, 1)
