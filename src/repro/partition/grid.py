"""Grid partitioning (the DataSynth baseline strategy, Section 3.2).

Grid partitioning intervalises the domain of every constrained attribute at
the constants appearing in the CCs and takes the full cross product of the
per-attribute intervals as the set of LP variables.  The number of cells
grows as ``l^n`` and the paper reports that it routinely overwhelms the LP
solver on complex workloads; :func:`grid_cell_count` therefore computes the
count without materialising the cells, and :func:`grid_partition` refuses to
materialise grids beyond a configurable limit (raising
:class:`~repro.errors.LPTooLargeError`, the analogue of the solver crash
reported in Section 7.2).  :func:`grid_signatures` is the LP formulator's
form of the grid: the cells as the arrays of a
:class:`~repro.partition.signature.SignaturePartition`, without a box per
cell.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Mapping, Sequence

import numpy as np

from repro.errors import LPTooLargeError, PartitionError
from repro.partition.box import Box
from repro.partition.signature import SignaturePartition
from repro.predicates.interval import Interval, elementary_segments
from repro.views.preprocess import ViewConstraint

#: Default ceiling on the number of grid cells that will be materialised.
DEFAULT_MAX_CELLS = 200_000


def attribute_cut_points(attribute: str,
                         constraints: Sequence[ViewConstraint]) -> List[int]:
    """Collect the interval boundaries that the CCs impose on one attribute."""
    points: set = set()
    for constraint in constraints:
        for conjunct in constraint.predicate.conjuncts:
            restriction = conjunct.restriction(attribute)
            if restriction is None:
                continue
            points.update(restriction.boundaries())
    return sorted(points)


def grid_intervals(attributes: Sequence[str], domains: Mapping[str, Interval],
                   constraints: Sequence[ViewConstraint]) -> Dict[str, List[Interval]]:
    """Intervalise every attribute's domain at the CC constants."""
    out: Dict[str, List[Interval]] = {}
    for attribute in attributes:
        domain = domains[attribute]
        cuts = attribute_cut_points(attribute, constraints)
        out[attribute] = elementary_segments(domain, cuts)
    return out


def grid_cell_count(attributes: Sequence[str], domains: Mapping[str, Interval],
                    constraints: Sequence[ViewConstraint]) -> int:
    """Number of grid cells (LP variables) without materialising them."""
    intervals = grid_intervals(attributes, domains, constraints)
    count = 1
    for attribute in attributes:
        count *= len(intervals[attribute])
    return count


def grid_partition(attributes: Sequence[str], domains: Mapping[str, Interval],
                   constraints: Sequence[ViewConstraint],
                   max_cells: int = DEFAULT_MAX_CELLS) -> List[Box]:
    """Materialise the grid cells as boxes.

    Raises
    ------
    LPTooLargeError
        When the number of cells exceeds ``max_cells`` — modelling the
        behaviour where the DataSynth formulation cannot be handled by the
        solver.
    """
    if not attributes:
        raise PartitionError("sub-view must have at least one attribute")
    count = grid_cell_count(attributes, domains, constraints)
    if count > max_cells:
        raise LPTooLargeError(
            f"grid partitioning would create {count} cells"
            f" (limit {max_cells}); the LP is too large to materialise"
        )
    intervals = grid_intervals(attributes, domains, constraints)
    cells: List[Dict[str, Interval]] = [{}]
    for attribute in attributes:
        cells = [dict(cell, **{attribute: piece})
                 for cell in cells for piece in intervals[attribute]]
    return [Box(cell) for cell in cells]


def grid_signatures(attributes: Sequence[str], domains: Mapping[str, Interval],
                    constraints: Sequence[ViewConstraint],
                    in_scope: Sequence[ViewConstraint], constraint_indices: Sequence[int],
                    shared: AbstractSet[str]) -> SignaturePartition:
    """The grid cells of one sub-view as a :class:`SignaturePartition`.

    The grid is intervalised at the constants of ``constraints`` (every view
    constraint, so sub-views sharing an attribute share its cells); cells
    are in row-major order over ``attributes``, each its own representative,
    labelled with the ``in_scope`` constraints (view indices
    ``constraint_indices``) it satisfies.  A cell's shared cell is its grid
    interval along every attribute in ``shared``.
    """
    if not attributes:
        raise PartitionError("sub-view must have at least one attribute")
    intervals = grid_intervals(attributes, domains, constraints)
    shape = tuple(len(intervals[attribute]) for attribute in attributes)
    labels = np.zeros(shape + (len(in_scope),), dtype=bool)
    for position, constraint in enumerate(in_scope):
        if constraint.predicate.is_true:
            labels[..., position] = True
            continue
        for conjunct in constraint.predicate.conjuncts:
            inside = np.ones(shape, dtype=bool)
            for axis, attribute in enumerate(attributes):
                restriction = conjunct.restriction(attribute)
                if restriction is not None:
                    covers = np.array([restriction.covers(piece)
                                       for piece in intervals[attribute]])
                    inside &= covers.reshape([-1 if k == axis else 1
                                              for k in range(len(shape))])
            labels[..., position] |= inside
    representatives = np.indices(shape).reshape(len(shape), -1).T
    refined = [axis for axis, attribute in enumerate(attributes) if attribute in shared]
    return SignaturePartition(
        attributes=tuple(attributes),
        segments=tuple(tuple(intervals[attribute]) for attribute in attributes),
        shared=tuple(attributes[axis] for axis in refined),
        constraint_indices=tuple(constraint_indices),
        labels=labels.reshape(len(representatives), len(in_scope)),
        cells=representatives[:, refined],
        representatives=representatives,
    )
