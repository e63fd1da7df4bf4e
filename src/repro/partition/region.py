"""Region partitioning (the paper's core contribution, Section 4).

Two equivalent implementations are provided:

* :func:`valid_partition` and :func:`optimal_partition_paper` follow the
  pseudo-code of Algorithms 2 and 1 literally (dimension-by-dimension
  refinement followed by label coarsening).  They are easy to audit against
  the paper and are used as a reference in the property-based tests.
* :func:`optimal_partition` is the production implementation: it processes
  one cardinality constraint at a time, keeping the running partition grouped
  by label, which avoids materialising the intermediate per-dimension grid
  while producing exactly the same set of labelled regions (the quotient of
  the domain by the equivalence relation ``R_C`` of Definition 4.1).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.errors import PartitionError
from repro.partition.box import Box, conjunct_boxes, domain_box
from repro.predicates.conjunct import Conjunct
from repro.predicates.dnf import DNFPredicate
from repro.predicates.interval import Interval
from repro.views.preprocess import ViewConstraint


@dataclass
class Region:
    """A region of the optimal partition: the set of boxes whose points all
    satisfy exactly the constraints in ``label``."""

    label: FrozenSet[int]
    boxes: List[Box]

    def volume(self) -> int:
        """Number of integer points covered by the region."""
        return sum(box.volume() for box in self.boxes)

    def representative(self) -> Dict[str, int]:
        """A representative point of the region (lower-left corner of its
        first box); used when instantiating summaries."""
        if not self.boxes:
            raise PartitionError("region has no boxes")
        return self.boxes[0].corner()

    def satisfies(self, constraint_index: int) -> bool:
        """``True`` when the region's points satisfy the given constraint."""
        return constraint_index in self.label


# ---------------------------------------------------------------------- #
# production implementation
# ---------------------------------------------------------------------- #
def optimal_partition(attributes: Sequence[str], domains: Mapping[str, Interval],
                      constraints: Sequence[ViewConstraint],
                      constraint_indices: Optional[Sequence[int]] = None) -> List[Region]:
    """Compute the optimal (minimum-region) partition of a sub-view domain.

    Parameters
    ----------
    attributes:
        The sub-view's attributes.
    domains:
        Domain interval per attribute.
    constraints:
        The view constraints within the sub-view's scope.
    constraint_indices:
        Labels to use for each constraint (defaults to ``0..len-1``); the
        LP formulator passes the view-level constraint indices so that labels
        are comparable across sub-views.

    Returns
    -------
    list[Region]
        One region per distinct constraint-satisfaction label with non-empty
        extent.  Unsatisfiable or always-true constraints are handled
        uniformly (a constraint that is true everywhere simply appears in
        every label).
    """
    if not attributes:
        raise PartitionError("sub-view must have at least one attribute")
    indices = list(constraint_indices) if constraint_indices is not None else list(
        range(len(constraints))
    )
    if len(indices) != len(constraints):
        raise PartitionError("constraint_indices must match constraints")

    universe = domain_box(attributes, domains)
    regions: Dict[FrozenSet[int], List[Box]] = {frozenset(): [universe]}

    for constraint, label_index in zip(constraints, indices):
        predicate = constraint.predicate
        if predicate.is_true:
            regions = {label | {label_index}: boxes for label, boxes in regions.items()}
            continue
        atomic = _predicate_boxes(predicate, universe)
        if not atomic:
            continue
        next_regions: Dict[FrozenSet[int], List[Box]] = defaultdict(list)
        for label, boxes in regions.items():
            inside_label = label | {label_index}
            for box in boxes:
                inside, outside = _split_box(box, atomic)
                if inside:
                    next_regions[inside_label].extend(inside)
                if outside:
                    next_regions[label].extend(outside)
        regions = dict(next_regions)

    return [Region(label=label, boxes=boxes) for label, boxes in sorted(
        regions.items(), key=lambda kv: sorted(kv[0])
    )]


def _predicate_boxes(predicate: DNFPredicate, universe: Box) -> List[Box]:
    """Decompose a DNF predicate (clipped to the universe) into disjoint
    boxes by subtracting earlier conjuncts from later ones."""
    covered: List[Box] = []
    for conjunct in predicate.conjuncts:
        pieces = conjunct_boxes(conjunct, universe)
        for piece in pieces:
            remaining = [piece]
            for existing in covered:
                next_remaining: List[Box] = []
                for part in remaining:
                    overlap = part.intersect(existing)
                    if overlap is None:
                        next_remaining.append(part)
                    else:
                        next_remaining.extend(part.subtract(overlap))
                remaining = next_remaining
                if not remaining:
                    break
            covered.extend(remaining)
    return covered


def _split_box(box: Box, atomic: Sequence[Box]) -> Tuple[List[Box], List[Box]]:
    """Split ``box`` into the parts inside / outside the union of the
    (disjoint) ``atomic`` boxes."""
    inside: List[Box] = []
    outside = [box]
    for piece in atomic:
        next_outside: List[Box] = []
        for part in outside:
            overlap = part.intersect(piece)
            if overlap is None:
                next_outside.append(part)
                continue
            inside.append(overlap)
            next_outside.extend(part.subtract(overlap))
        outside = next_outside
        if not outside:
            break
    return inside, outside


# ---------------------------------------------------------------------- #
# literal paper algorithms (reference implementation)
# ---------------------------------------------------------------------- #
def valid_partition(attributes: Sequence[str], domains: Mapping[str, Interval],
                    sub_constraints: Sequence[Conjunct]) -> List[Box]:
    """Algorithm 2 (Valid-Partition): refine the domain dimension by
    dimension so that no sub-constraint splits any block."""
    universe = domain_box(attributes, domains)
    blocks: List[Box] = [universe]
    for attribute in attributes:
        current = blocks
        for conjunct in sub_constraints:
            restriction = conjunct.restriction(attribute)
            if restriction is None:
                continue
            refined: List[Box] = []
            for block in current:
                interval = block.interval(attribute)
                clipped = restriction.intersect_interval(interval)
                if clipped.is_empty or clipped.width == interval.width:
                    refined.append(block)
                    continue
                cut_points = [p for p in clipped.boundaries()
                              if interval.lo < p < interval.hi]
                refined.extend(block.split_along(attribute, cut_points))
            current = refined
        blocks = current
    return blocks


def optimal_partition_paper(attributes: Sequence[str], domains: Mapping[str, Interval],
                            constraints: Sequence[ViewConstraint],
                            constraint_indices: Optional[Sequence[int]] = None,
                            ) -> List[Region]:
    """Algorithm 1 (Optimal-Partition): build a valid partition for the
    sub-constraints, label each block with the set of constraints it
    satisfies, then merge blocks with equal labels."""
    indices = list(constraint_indices) if constraint_indices is not None else list(
        range(len(constraints))
    )
    sub_constraints: List[Conjunct] = []
    for constraint in constraints:
        sub_constraints.extend(constraint.predicate.conjuncts)

    blocks = valid_partition(attributes, domains, sub_constraints)

    grouped: Dict[FrozenSet[int], List[Box]] = defaultdict(list)
    for block in blocks:
        label = frozenset(
            idx for constraint, idx in zip(constraints, indices)
            if block.satisfies_predicate(constraint.predicate)
        )
        grouped[label].append(block)
    return [Region(label=label, boxes=boxes) for label, boxes in sorted(
        grouped.items(), key=lambda kv: sorted(kv[0])
    )]
