"""Signature-based region partitioning, with consistency refinement.

:func:`repro.partition.region.optimal_partition` manipulates explicit box
geometry, which is ideal for auditing the algorithm against the paper but
becomes expensive when a sub-view has many attributes and many overlapping
constraints.  This module computes the very same set of LP variables — one
per distinct (constraint-satisfaction label, shared-attribute cell) pair with
non-empty extent — using a per-dimension dynamic programme over *elementary
segments*:

1. every attribute's domain is cut at the constants of the in-scope
   constraints (and at the shared-attribute boundaries used for consistency),
2. each segment gets a bitmask recording which sub-constraints (conjuncts) it
   satisfies along that attribute,
3. a sweep over the attributes intersects the bitmasks, merging states that
   have become indistinguishable, so the running state count never exceeds
   the number of distinct final variables.

Consistency refinement (Section 4.2, "Consistency Constraints"): sub-views
of one view may share attributes, and their LP solutions must then agree on
the joint distribution of those attributes.  Every variable is therefore
refined to project into a single *shared cell* — one elementary segment of
every shared attribute — and the LP formulator equates the per-cell sums.

The sweep (:func:`partition_signatures`) returns a :class:`SignaturePartition`
that holds the variables as arrays: a label row, a shared cell and a
representative elementary box per variable.  Nothing is built per variable;
the summary generator reads intervals off the arrays only for the variables
the LP solution makes positive.  The LP formulator tries several refinements
per view and keeps one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import PartitionBudgetError, PartitionError
from repro.predicates.interval import Interval, elementary_segments
from repro.views.preprocess import ViewConstraint


@dataclass(frozen=True, eq=False)
class SignaturePartition:
    """The LP variables of one sub-view, one array row per variable.

    Region partitions order their variables by (sorted label, shared cell),
    grid partitions by cell, row-major.  ``labels[v, j]``
    says whether variable ``v`` satisfies view constraint
    ``constraint_indices[j]``; ``cells[v, k]`` is the segment index of its
    shared cell along ``shared[k]`` (the sub-view's refined attributes, in
    attribute order); ``representatives[v, i]`` indexes ``segments[i]``, the
    elementary segments of ``attributes[i]``, and so names one elementary
    box inside the variable's region.
    """

    attributes: Tuple[str, ...]
    segments: Tuple[Tuple[Interval, ...], ...]
    shared: Tuple[str, ...]
    constraint_indices: Tuple[int, ...]
    labels: np.ndarray
    cells: np.ndarray
    representatives: np.ndarray

    def __len__(self) -> int:
        return len(self.representatives)

    def variables(self, indices: Sequence[int]) -> Iterator[
            Tuple[Dict[str, Interval], FrozenSet[int], Dict[str, int]]]:
        """Per variable in ``indices``: its representative box (an interval
        per attribute), its label (the view constraints it satisfies) and
        its shared cell (a segment index per shared attribute)."""
        for representative, label, cell in zip(self.representatives[indices].tolist(),
                                               self.labels[indices].tolist(),
                                               self.cells[indices].tolist()):
            yield ({attribute: pieces[index] for attribute, pieces, index
                    in zip(self.attributes, self.segments, representative)},
                   frozenset(constraint for constraint, holds
                             in zip(self.constraint_indices, label) if holds),
                   dict(zip(self.shared, cell)))

    def corners(self, attribute: str) -> np.ndarray:
        """Every variable's representative lower bound along ``attribute``."""
        position = self.attributes.index(attribute)
        lows = np.array([piece.lo for piece in self.segments[position]], dtype=np.int64)
        return lows[self.representatives[:, position]]


def partition_signatures(attributes: Sequence[str], domains: Mapping[str, Interval],
                         constraints: Sequence[ViewConstraint],
                         constraint_indices: Sequence[int],
                         shared_segments: Mapping[str, Sequence[Interval]],
                         max_states: Optional[int] = None,
                         ) -> SignaturePartition:
    """Partition one sub-view into its LP variables.

    Parameters
    ----------
    attributes:
        The sub-view's attributes.
    domains:
        Domain interval per attribute.
    constraints / constraint_indices:
        The view constraints within the sub-view's scope and their view-level
        indices (used as labels).
    shared_segments:
        Elementary segments per shared attribute (attributes shared with
        other sub-views); variables are refined so that each projects into a
        single segment of every shared attribute, which is what the
        consistency constraints and the alignment step require.
    max_states:
        Optional abort threshold: when the sweep's running state count
        exceeds it, :class:`~repro.errors.PartitionBudgetError` is raised so
        the caller can retry with a coarser shared-attribute refinement
        instead of paying for an oversized partition.
    """
    if not attributes:
        raise PartitionError("sub-view must have at least one attribute")
    if len(constraints) != len(constraint_indices):
        raise PartitionError("constraint_indices must match constraints")

    # ------------------------------------------------------------------ #
    # collect conjuncts; always-true constraints hold everywhere
    # ------------------------------------------------------------------ #
    conjuncts: List["object"] = []
    conjunct_owner: List[int] = []               # constraint position per conjunct
    always_true: Set[int] = set()
    for position, constraint in enumerate(constraints):
        if constraint.predicate.is_true:
            always_true.add(position)
            continue
        for conjunct in constraint.predicate.conjuncts:
            conjuncts.append(conjunct)
            conjunct_owner.append(position)
    full_mask = (1 << len(conjuncts)) - 1 if conjuncts else 0

    # ------------------------------------------------------------------ #
    # per-attribute segments and their (conjunct mask, shared cell) pairs
    # ------------------------------------------------------------------ #
    all_segments: List[Tuple[Interval, ...]] = []
    per_attribute: List[Tuple[List[Tuple[int, int]], bool]] = []
    for attribute in attributes:
        restricted = []
        unrestricted_mask = 0
        cuts: Set[int] = set()
        for bit, conjunct in enumerate(conjuncts):
            restriction = conjunct.restriction(attribute)
            if restriction is None:
                unrestricted_mask |= 1 << bit
            else:
                restricted.append((1 << bit, restriction))
                cuts.update(restriction.boundaries())
        shared = shared_segments.get(attribute)
        if shared is not None:
            for segment in shared:
                cuts.add(segment.lo)
                cuts.add(segment.hi)
        segments = elementary_segments(domains[attribute], sorted(cuts))

        annotated: List[Tuple[int, int]] = []
        for segment in segments:
            mask = unrestricted_mask
            for bit, restriction in restricted:
                if restriction.covers(segment):
                    mask |= bit
            cell = _locate_cell(segment, shared) if shared is not None else -1
            annotated.append((mask, cell))
        all_segments.append(tuple(segments))
        per_attribute.append((annotated, shared is not None))

    # ------------------------------------------------------------------ #
    # dimension-by-dimension sweep with state merging
    # ------------------------------------------------------------------ #
    # state key: (conjunct mask, shared-cell indices so far)
    # state value: representative segment index per processed attribute
    states: Dict[Tuple[int, Tuple[int, ...]], Tuple[int, ...]] = {(full_mask, ()): ()}
    for position, (annotated, is_shared) in enumerate(per_attribute):
        next_states: Dict[Tuple[int, Tuple[int, ...]], Tuple[int, ...]] = {}
        for (mask, cells), representative in states.items():
            for segment_index, (segment_mask, cell) in enumerate(annotated):
                key = (mask & segment_mask, cells + (cell,) if is_shared else cells)
                if key in next_states:
                    continue
                next_states[key] = representative + (segment_index,)
                if max_states is not None and len(next_states) > max_states:
                    raise PartitionBudgetError(
                        f"partitioning exceeded {max_states} states while processing"
                        f" attribute {attributes[position]!r}"
                    )
        states = next_states

    # ------------------------------------------------------------------ #
    # states to variables, merging states with equal (label, cells): the
    # first state seen keeps its representative.  One row per variable
    # (label rank, cells, representative), sorted by (label, cells).
    # ------------------------------------------------------------------ #
    labels: Dict[int, Tuple[int, ...]] = {}                # mask -> sorted label
    variables: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Tuple[int, ...]] = {}
    for (mask, cells), representative in states.items():
        label = labels.get(mask)
        if label is None:
            satisfied = always_true | {owner for bit, owner in enumerate(conjunct_owner)
                                       if mask >> bit & 1}
            label = labels[mask] = tuple(sorted({constraint_indices[p] for p in satisfied}))
        variables.setdefault((label, cells), representative)
    ranked = sorted(set(labels.values()))
    rank = {label: index for index, label in enumerate(ranked)}
    shared = tuple(a for a in attributes if a in shared_segments)
    width = 1 + len(shared) + len(attributes)
    table = np.fromiter(chain.from_iterable(
        (rank[label],) + cells + representative
        for (label, cells), representative in variables.items()),
        dtype=np.intp, count=len(variables) * width).reshape(len(variables), width)
    table = table[np.lexsort(table[:, len(shared)::-1].T)]
    label_rows = np.array([[index in label for index in constraint_indices]
                           for label in ranked], dtype=bool)
    return SignaturePartition(
        attributes=tuple(attributes),
        segments=tuple(all_segments),
        shared=shared,
        constraint_indices=tuple(constraint_indices),
        labels=label_rows.reshape(len(ranked), len(constraint_indices))[table[:, 0]],
        cells=table[:, 1:len(shared) + 1],
        representatives=table[:, len(shared) + 1:],
    )


def shared_segments_from_constraints(attribute: str, domain: Interval,
                                     constraints: Sequence[ViewConstraint],
                                     ) -> List[Interval]:
    """Elementary segments of ``attribute`` induced by the constants of the
    given constraints (the granularity needed for consistency/alignment)."""
    cuts: Set[int] = set()
    for constraint in constraints:
        for conjunct in constraint.predicate.conjuncts:
            restriction = conjunct.restriction(attribute)
            if restriction is not None:
                cuts.update(restriction.boundaries())
    return elementary_segments(domain, sorted(cuts))


def _locate_cell(segment: Interval, shared: Sequence[Interval]) -> int:
    for index, cell in enumerate(shared):
        if cell.lo <= segment.lo and segment.hi <= cell.hi:
            return index
    raise PartitionError(
        f"segment {segment!r} does not fit inside any shared elementary segment"
    )
