"""LP formulation for a view (Section 4).

Given a :class:`~repro.views.preprocess.ViewTask` (view definition, rewritten
constraints, sub-view decomposition), the formulator:

1. partitions every sub-view's domain — with **region partitioning** for
   Hydra or **grid partitioning** for the DataSynth baseline;
2. refines the partitions along attributes shared between sub-views so that
   marginal distributions can be equated;
3. emits the equality constraints: one per cardinality constraint per
   sub-view in whose scope it falls, plus the consistency constraints along
   the clique-tree edges.

Both partitions are :class:`~repro.partition.signature.SignaturePartition`
arrays, and the rows are built from them in bulk: a sub-view's cardinality
rows are the columns of its label array, an edge's consistency rows group
both sub-views' variables by their shared cell.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.errors import LPError, LPTooLargeError, PartitionBudgetError
from repro.obs.trace import span as trace_span
from repro.partition.grid import grid_cell_count, grid_signatures
from repro.partition.signature import (
    SignaturePartition,
    partition_signatures,
    shared_segments_from_constraints,
)
from repro.lp.model import LPModel, SubViewBlock, ViewLP
from repro.views.preprocess import ViewTask

#: Strategies understood by :func:`formulate_view_lp`.
STRATEGY_REGION = "region"
STRATEGY_GRID = "grid"

#: Ceiling on materialised grid variables (the DataSynth "solver crash" limit).
DEFAULT_MAX_GRID_VARIABLES = 200_000

#: Soft budget on region-strategy LP variables per view.  When the
#: consistency refinement would exceed it, refinement is dropped attribute by
#: attribute (most expensive first); alignment then operates on the remaining
#: attributes, trading a little volumetric accuracy for bounded LP size.
DEFAULT_MAX_REGION_VARIABLES = 8_000


def formulate_view_lp(task: ViewTask, strategy: str = STRATEGY_REGION,
                      max_grid_variables: int = DEFAULT_MAX_GRID_VARIABLES,
                      max_region_variables: int = DEFAULT_MAX_REGION_VARIABLES) -> ViewLP:
    """Build the LP for one view using the requested partitioning strategy."""
    with trace_span("lp.formulate", relation=task.relation) as span:
        if strategy == STRATEGY_REGION:
            ladder = _region_ladder(task, max_region_variables)
            partitions = ladder.partitions
            aligned = ladder.aligned
            span.set_attribute("rungs", ladder.rungs)
            span.set_attribute("partition_calls", ladder.partition_calls)
        elif strategy == STRATEGY_GRID:
            partitions = _grid_partitions(task, max_grid_variables)
            aligned = tuple(sorted(_shared_attributes(task)))
        else:
            raise LPError(f"unknown partitioning strategy {strategy!r}")

        model = LPModel(name=f"{task.relation}:{strategy}")
        blocks: List[SubViewBlock] = []
        for index, subview in enumerate(task.subviews):
            blocks.append(SubViewBlock(subview_index=index, attributes=subview.attributes,
                                       start=model.num_variables,
                                       partition=partitions[index]))
            model.num_variables = blocks[-1].stop

        # (row lengths, variable indices, right-hand sides, coefficients)
        chunks = _cardinality_rows(task, blocks) + _consistency_rows(task, blocks, aligned)
        if chunks:
            model.add_rows(*(np.concatenate(arrays) for arrays in zip(*chunks)))
        span.set_attribute("variables", model.num_variables)
        span.set_attribute("constraints", model.num_constraints)
        span.set_attribute("aligned", list(aligned))
    return ViewLP(relation=task.relation, model=model, blocks=blocks, strategy=strategy,
                  aligned_attributes=aligned)


def count_lp_variables(task: ViewTask, strategy: str = STRATEGY_REGION,
                       max_region_variables: int = DEFAULT_MAX_REGION_VARIABLES) -> int:
    """Number of LP variables the strategy would create for this view,
    computed without materialising grids (used for Figures 12 and 17)."""
    if strategy == STRATEGY_GRID:
        total = 0
        for subview in task.subviews:
            total += grid_cell_count(
                subview.attributes, task.view.domains, task.constraints
            )
        return total
    if strategy == STRATEGY_REGION:
        partitions = _region_ladder(task, max_region_variables).partitions
        return sum(len(partition) for partition in partitions.values())
    raise LPError(f"unknown partitioning strategy {strategy!r}")


# ---------------------------------------------------------------------- #
# variable construction
# ---------------------------------------------------------------------- #
class _Ladder(NamedTuple):
    """The accepted rung of :func:`_region_ladder`."""

    partitions: Dict[int, SignaturePartition]
    aligned: Tuple[str, ...]
    rungs: int
    #: Distinct sub-view partitions swept (memo misses) across all rungs.
    partition_calls: int


def _region_ladder(task: ViewTask, max_region_variables: int) -> _Ladder:
    """Region-partition every sub-view and refine along shared attributes.

    Returns the partition per sub-view and the tuple of shared attributes
    that were actually refined (the *aligned* attributes).  When the full
    refinement would exceed ``max_region_variables``, the alignment is
    coarsened and then the most expensive shared attributes are dropped from
    refinement one by one; the alignment step later only groups on the
    attributes kept here, which keeps both the LP and the merge consistent
    with each other.

    Rungs of the ladder often repeat a sub-view's work (its own shared
    segments may be unchanged by a coarser granularity), so sweeps are
    memoised per ``(sub-view, own segments, state budget)``, budget aborts
    included, and a rung stops at the first sub-view that takes it over
    budget.
    """
    full_segments = {
        attribute: shared_segments_from_constraints(
            attribute, task.view.domains[attribute],
            [task.constraints[i]
             for subview in task.subviews if attribute in subview.attributes
             for i in subview.constraint_indices],
        )
        for attribute in _shared_attributes(task)
    }
    memo: Dict[tuple, Union[SignaturePartition, PartitionBudgetError]] = {}

    # Escalation ladder: exact shared segments first, then progressively
    # coarser alignment granularities, then dropping alignment attributes.
    granularities: List[Optional[int]] = [None, 12, 6, 3, 2]
    active = set(full_segments)
    attempt = 0
    while True:
        max_segments = granularities[min(attempt, len(granularities) - 1)]
        segments = {attribute: _coarsen_segments(full_segments[attribute], max_segments)
                    for attribute in active}
        if attempt >= len(granularities) and active:
            # Past the coarsest granularity: drop the widest attribute,
            # breaking ties by name so the LP never depends on hash order.
            widest = max(sorted(active), key=lambda a: len(segments[a]))
            active.discard(widest)
            del segments[widest]
        max_states = max_region_variables if active else None
        out: Dict[int, SignaturePartition] = {}
        total = 0
        for index, subview in enumerate(task.subviews):
            own = tuple((a, tuple(segments[a])) for a in subview.attributes if a in segments)
            key = (index, own, max_states)
            if key not in memo:
                try:
                    memo[key] = partition_signatures(
                        subview.attributes, task.view.domains,
                        [task.constraints[i] for i in subview.constraint_indices],
                        subview.constraint_indices, segments, max_states=max_states,
                    )
                except PartitionBudgetError as error:
                    memo[key] = error
            partition = memo[key]
            if isinstance(partition, PartitionBudgetError):
                break
            out[index] = partition
            total += len(partition)
            if active and total > max_region_variables:
                break
        else:
            return _Ladder(out, tuple(sorted(active)), attempt + 1, len(memo))
        attempt += 1


def _coarsen_segments(segments: List, max_segments: Optional[int]) -> List:
    """Merge adjacent elementary segments down to at most ``max_segments``
    pieces (coarser alignment granularity, used when a view's LP would
    otherwise exceed its variable budget)."""
    if max_segments is None or len(segments) <= max_segments:
        return segments
    from repro.predicates.interval import Interval as _Interval

    merged: List = []
    per_group = len(segments) / max_segments
    start = 0
    for group in range(max_segments):
        end = int(round((group + 1) * per_group))
        end = max(end, start + 1)
        end = min(end, len(segments))
        merged.append(_Interval(segments[start].lo, segments[end - 1].hi))
        start = end
        if start >= len(segments):
            break
    return merged


def _grid_partitions(task: ViewTask,
                     max_grid_variables: int) -> Dict[int, SignaturePartition]:
    """Grid-partition every sub-view (DataSynth).

    The grid is intervalised from the constants of *all* view constraints, so
    shared attributes are automatically aligned across sub-views and no
    further refinement is needed.
    """
    total = 0
    for subview in task.subviews:
        total += grid_cell_count(subview.attributes, task.view.domains, task.constraints)
    if total > max_grid_variables:
        raise LPTooLargeError(
            f"grid formulation of view {task.relation!r} needs {total} variables"
            f" (limit {max_grid_variables})"
        )
    shared = _shared_attributes(task)
    return {
        index: grid_signatures(
            subview.attributes, task.view.domains, task.constraints,
            [task.constraints[i] for i in subview.constraint_indices],
            subview.constraint_indices, shared,
        )
        for index, subview in enumerate(task.subviews)
    }


def _shared_attributes(task: ViewTask) -> Set[str]:
    """Attributes appearing in more than one sub-view of the view."""
    counts: Dict[str, int] = defaultdict(int)
    for subview in task.subviews:
        for attribute in subview.attributes:
            counts[attribute] += 1
    return {attribute for attribute, count in counts.items() if count > 1}


# ---------------------------------------------------------------------- #
# constraint construction
# ---------------------------------------------------------------------- #
Rows = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _cardinality_rows(task: ViewTask, blocks: Sequence[SubViewBlock]) -> List[Rows]:
    """One row per in-scope constraint per sub-view: the variables whose label
    holds it, in index order."""
    chunks: List[Rows] = []
    for block in blocks:
        labels = block.partition.labels
        _, members = np.nonzero(labels.T)
        cardinalities = [task.constraints[i].cardinality
                         for i in block.partition.constraint_indices]
        chunks.append((labels.sum(axis=0), members + block.start,
                       np.array(cardinalities, dtype=np.float64),
                       np.ones(len(members))))
    return chunks


def _consistency_rows(task: ViewTask, blocks: Sequence[SubViewBlock],
                      aligned: Tuple[str, ...]) -> List[Rows]:
    """Per consistency edge, one row per shared cell (in cell order): the
    left sub-view's variables in that cell minus the right one's."""
    aligned_set = set(aligned)
    block_by_index = {block.subview_index: block for block in blocks}
    chunks: List[Rows] = []
    for left_index, right_index in task.consistency_edges:
        left = block_by_index[left_index]
        right = block_by_index[right_index]
        shared = sorted(set(left.attributes) & set(right.attributes) & aligned_set)
        if not shared:
            continue
        cells = np.concatenate([
            block.partition.cells[:, [block.partition.shared.index(a) for a in shared]]
            for block in (left, right)
        ])
        variables = np.concatenate([np.arange(left.start, left.stop),
                                    np.arange(right.start, right.stop)])
        coefficients = np.repeat([1.0, -1.0], [left.stop - left.start,
                                              right.stop - right.start])
        # sort by cell, stably: within a cell the left variables, then the
        # right ones, each in index order
        order = np.lexsort(cells.T[::-1])
        cells = cells[order]
        new_cell = np.ones(len(order), dtype=bool)
        (cells[1:] != cells[:-1]).any(axis=1, out=new_cell[1:])
        lengths = np.bincount(new_cell.cumsum() - 1)
        chunks.append((lengths, variables[order], np.zeros(len(lengths)),
                       coefficients[order]))
    return chunks
