"""Solution containers used while building the database summary.

After LP solving, every positive variable becomes a *sub-view solution row*:
an interval per sub-view attribute plus the number of tuples assigned to it
(the "NumTuples" of Section 5).  Sub-view solutions are then aligned and
merged into *view solution rows* spanning all constrained attributes of the
view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.errors import SummaryError
from repro.lp.model import LPSolution, ViewLP
from repro.predicates.interval import Interval


@dataclass
class SolutionRow:
    """One row of a (sub-)view solution: an interval per attribute and the
    number of tuples that fall in the region represented by those intervals.

    ``cells`` records, for every *aligned* (shared) attribute, the index of
    the consistency cell the row falls into; alignment groups rows by these
    indices so that the grouping matches the LP's consistency constraints
    even when the cells are coarser than the raw interval boundaries.
    """

    intervals: Dict[str, Interval]
    count: int
    label: FrozenSet[int] = frozenset()
    cells: Dict[str, int] = field(default_factory=dict)

    def key(self, attributes: Sequence[str]) -> Tuple[int, ...]:
        """Group key for alignment: the consistency-cell index where known,
        otherwise the interval left boundary, along ``attributes``."""
        return tuple(
            self.cells[a] if a in self.cells else self.intervals[a].lo
            for a in attributes
        )

    def corner(self) -> Dict[str, int]:
        """Left boundaries of all intervals (the instantiation values)."""
        return {attr: interval.lo for attr, interval in self.intervals.items()}

    def split(self, amount: int) -> Tuple["SolutionRow", "SolutionRow"]:
        """Split the row into one carrying ``amount`` tuples and the rest."""
        if not 0 < amount < self.count:
            raise SummaryError(f"cannot split a row of {self.count} tuples at {amount}")
        first = SolutionRow(intervals=dict(self.intervals), count=amount,
                            label=self.label, cells=dict(self.cells))
        second = SolutionRow(intervals=dict(self.intervals), count=self.count - amount,
                             label=self.label, cells=dict(self.cells))
        return first, second


@dataclass
class SubViewSolution:
    """The LP solution restricted to one sub-view."""

    attributes: Tuple[str, ...]
    rows: List[SolutionRow] = field(default_factory=list)

    def total(self) -> int:
        """Total number of tuples across all rows."""
        return sum(row.count for row in self.rows)


@dataclass
class ViewSolution:
    """The merged solution of a complete view: rows spanning the union of the
    sub-views' attributes (Figure 8(c) in the paper)."""

    relation: str
    attributes: Tuple[str, ...]
    rows: List[SolutionRow] = field(default_factory=list)

    def total(self) -> int:
        """Total number of tuples across all rows."""
        return sum(row.count for row in self.rows)


def subview_solutions(view_lp: ViewLP, solution: LPSolution) -> List[SubViewSolution]:
    """Convert a solved view LP into per-sub-view solutions.

    Variables assigned zero tuples are dropped; each remaining variable
    contributes one row whose intervals are those of its representative
    elementary box (every point of a variable's region satisfies the same
    constraints and lies in the same shared cell, so any box of it is an
    equally valid representative).  Only these positive variables are read
    off the partition arrays.
    """
    out: List[SubViewSolution] = []
    for block in view_lp.blocks:
        counts = solution.values[block.start:block.stop]
        positive = np.flatnonzero(counts > 0)
        rows = [
            SolutionRow(intervals=intervals, count=count, label=label, cells=cells)
            for count, (intervals, label, cells)
            in zip(counts[positive].tolist(), block.partition.variables(positive))
        ]
        out.append(SubViewSolution(attributes=block.attributes, rows=rows))
    return out
