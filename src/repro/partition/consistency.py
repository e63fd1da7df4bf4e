"""Consistency refinement across sub-views (Section 4.2, "Consistency
Constraints").

Sub-views of the same view may share attributes; their LP solutions must then
agree on the joint distribution of the shared attributes.  To express this
with linear constraints, the partitions of both sub-views are refined along
the shared attributes so that the boundaries line up (every refined variable
projects into exactly one *elementary segment* per shared attribute).  The LP
formulator then simply equates the per-segment-combination sums.  The
refinement itself happens inside the partitioner
(:mod:`repro.partition.signature`); this module holds its unit, the
:class:`RefinedVariable`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.errors import PartitionError
from repro.partition.box import Box


@dataclass
class RefinedVariable:
    """One LP variable after consistency refinement.

    Attributes
    ----------
    label:
        The set of view-constraint indices satisfied by every point.
    boxes:
        Disjoint boxes making up the variable's extent.
    shared_cell:
        For every shared attribute of the sub-view, the index of the
        elementary segment the variable projects into.  Variables of two
        sub-views with the same projection onto their common attributes are
        tied together by a consistency constraint.
    """

    label: FrozenSet[int]
    boxes: List[Box]
    shared_cell: Tuple[Tuple[str, int], ...]

    def volume(self) -> int:
        """Number of integer points covered by the variable's extent."""
        return sum(box.volume() for box in self.boxes)

    def representative(self) -> Dict[str, int]:
        """Lower-left corner of the first box (summary instantiation value)."""
        if not self.boxes:
            raise PartitionError("refined variable has no boxes")
        return self.boxes[0].corner()

    def cell_of(self, attributes: Sequence[str]) -> Tuple[int, ...]:
        """Return the segment indices along the given shared attributes."""
        lookup = dict(self.shared_cell)
        return tuple(lookup[attr] for attr in attributes)
