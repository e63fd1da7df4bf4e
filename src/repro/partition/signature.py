"""Signature-based region partitioning.

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

The sweep (:func:`partition_signatures`) yields a compact
:class:`SignaturePartition` of plain tuples; :func:`materialise_variables`
turns it into :class:`~repro.partition.consistency.RefinedVariable` objects
carrying a representative elementary cell per variable, which is all the
summary generator needs (value instantiation uses the cell corner and
alignment uses the shared-cell position).  The LP formulator tries several
refinements per view and materialises only the one it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import PartitionBudgetError, PartitionError
from repro.partition.box import Box
from repro.partition.consistency import RefinedVariable
from repro.predicates.interval import Interval, elementary_segments
from repro.views.preprocess import ViewConstraint


@dataclass(frozen=True)
class SignaturePartition:
    """The variables of one sub-view before materialisation.

    ``entries`` holds one ``(label, cells, representative)`` triple per
    variable, in the order :func:`partition_variables` returns them:
    ``cells`` are the segment indices along ``shared`` (the sub-view's
    shared attributes, in attribute order) and ``representative`` indexes
    ``segments[i]`` for every ``attributes[i]``.
    """

    attributes: Tuple[str, ...]
    segments: Tuple[Tuple[Interval, ...], ...]
    shared: Tuple[str, ...]
    entries: Tuple[Tuple[FrozenSet[int], Tuple[int, ...], Tuple[int, ...]], ...]

    def __len__(self) -> int:
        return len(self.entries)


def partition_variables(attributes: Sequence[str], domains: Mapping[str, Interval],
                        constraints: Sequence[ViewConstraint],
                        constraint_indices: Sequence[int],
                        shared_segments: Mapping[str, List[Interval]],
                        max_states: Optional[int] = None,
                        ) -> List[RefinedVariable]:
    """Build the LP variables of one sub-view.

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

    Returns
    -------
    list[RefinedVariable]
        One variable per distinct (label, shared-cell) combination, each with
        a single representative elementary box.
    """
    return materialise_variables(partition_signatures(
        attributes, domains, constraints, constraint_indices, shared_segments,
        max_states,
    ))


def partition_signatures(attributes: Sequence[str], domains: Mapping[str, Interval],
                         constraints: Sequence[ViewConstraint],
                         constraint_indices: Sequence[int],
                         shared_segments: Mapping[str, Sequence[Interval]],
                         max_states: Optional[int] = None,
                         ) -> SignaturePartition:
    """The sweep of :func:`partition_variables`, without building variables
    (same parameters and errors)."""
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
    # convert states to variables, merging states with equal labels
    # ------------------------------------------------------------------ #
    # keyed by (sorted label, cells): the first state seen keeps its
    # representative, and sorting the keys gives the variables' order
    labels: Dict[int, Tuple[Tuple[int, ...], FrozenSet[int]]] = {}
    variables: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]],
                    Tuple[FrozenSet[int], Tuple[int, ...]]] = {}
    for (mask, cells), representative in states.items():
        if mask not in labels:
            satisfied = set(always_true)
            for bit, owner in enumerate(conjunct_owner):
                if mask & (1 << bit):
                    satisfied.add(owner)
            label = frozenset(constraint_indices[p] for p in satisfied)
            labels[mask] = (tuple(sorted(label)), label)
        sort_key, label = labels[mask]
        variables.setdefault((sort_key, cells), (label, representative))

    return SignaturePartition(
        attributes=tuple(attributes),
        segments=tuple(all_segments),
        shared=tuple(a for a in attributes if a in shared_segments),
        entries=tuple((label, cells, representative) for (_, cells), (label, representative)
                      in sorted(variables.items())),
    )


def materialise_variables(partition: SignaturePartition) -> List[RefinedVariable]:
    """One :class:`RefinedVariable` per entry of ``partition``, in order."""
    attributes, segments, shared = partition.attributes, partition.segments, partition.shared
    return [
        RefinedVariable(
            label=label,
            boxes=[Box({attribute: pieces[index] for attribute, pieces, index
                        in zip(attributes, segments, representative)})],
            shared_cell=tuple(zip(shared, cells)),
        )
        for label, cells, representative in partition.entries
    ]


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
