"""Deterministic alignment and merging of sub-view solutions (Section 5.1).

DataSynth turns sub-view solutions into a full view solution by *sampling*
from the joint/conditional distributions, which is slow and introduces
probabilistic errors.  Hydra instead uses a deterministic two-step procedure:

* **Solution sorting** — both the accumulated view solution and the next
  sub-view solution are sorted on their common attributes;
* **Row splitting** — rows are split so that corresponding rows carry the
  same number of tuples, after which a position-based merge joins them.

The LP's consistency constraints guarantee that, within any value of the
common attributes, both solutions carry the same total number of tuples, so
the positional merge is well defined.  Small mismatches (possible only when
the solver had to fall back to a rounded continuous solution) are tolerated:
leftover tuples are merged with the last aligned row rather than dropped.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.summary.solution import SolutionRow, SubViewSolution, ViewSolution


def merge_subview_solutions(relation: str, solutions: Sequence[SubViewSolution],
                            order: Sequence[int],
                            aligned_attributes: Optional[Sequence[str]] = None,
                            ) -> ViewSolution:
    """Merge sub-view solutions into the view solution following ``order``
    (a running-intersection-property order of the sub-views).

    ``aligned_attributes`` restricts the attributes used for grouping during
    alignment; it must match the attributes along which the LP enforced
    consistency (``ViewLP.aligned_attributes``), otherwise group totals would
    not be guaranteed to match.  ``None`` aligns on all common attributes.
    """
    aligned: Optional[Set[str]] = set(aligned_attributes) if aligned_attributes is not None else None
    view = ViewSolution(relation=relation, attributes=())
    for index in order:
        subview = solutions[index]
        if not view.attributes:
            view = ViewSolution(
                relation=relation,
                attributes=tuple(subview.attributes),
                rows=[SolutionRow(dict(r.intervals), r.count, r.label, dict(r.cells))
                      for r in subview.rows],
            )
            continue
        view = _merge_one(view, subview, aligned)
    return view


def _merge_one(view: ViewSolution, subview: SubViewSolution,
               aligned: Optional[Set[str]] = None) -> ViewSolution:
    common = tuple(sorted(set(view.attributes) & set(subview.attributes)))
    if aligned is not None:
        common = tuple(a for a in common if a in aligned)
    new_attributes = tuple(view.attributes) + tuple(
        a for a in subview.attributes if a not in view.attributes
    )

    view_groups = _group_rows(view.rows, common)
    sub_groups = _group_rows(subview.rows, common)

    merged: List[SolutionRow] = []
    for key in sorted(set(view_groups) | set(sub_groups)):
        left_rows = view_groups.get(key)
        right_rows = sub_groups.get(key)
        if left_rows and right_rows:
            merged.extend(_align_and_join(left_rows, right_rows))
            continue
        # A cell only one side fills (possible only with approximate LP
        # solutions): its rows borrow the other side's attributes from the
        # nearest row there, so every row spans the merged attributes.
        rows, other = (left_rows, sub_groups) if left_rows else (right_rows, view_groups)
        donor = _nearest_row(other, key)
        merged.extend(_fill_missing(row, donor) if donor else row for row in rows)
    return ViewSolution(relation=view.relation, attributes=new_attributes, rows=merged)


def _nearest_row(groups: Dict[Tuple[int, ...], List[SolutionRow]],
                 key: Tuple[int, ...]) -> Optional[SolutionRow]:
    """The last row of the closest group below ``key``, else the first row of
    the lowest group (``None`` when there are no groups)."""
    below = [k for k in groups if k < key]
    if below:
        return groups[max(below)][-1]
    return groups[min(groups)][0] if groups else None


def _fill_missing(row: SolutionRow, donor: SolutionRow) -> SolutionRow:
    """``row`` plus the intervals and cells of the attributes only ``donor``
    has; the row's own intervals, cells and label are kept."""
    intervals = dict(row.intervals)
    cells = dict(row.cells)
    for attr, interval in donor.intervals.items():
        if attr not in intervals:
            intervals[attr] = interval
            if attr in donor.cells:
                cells[attr] = donor.cells[attr]
    return SolutionRow(intervals=intervals, count=row.count, label=row.label,
                       cells=cells)


def _group_rows(rows: Sequence[SolutionRow], common: Tuple[str, ...],
                ) -> Dict[Tuple[int, ...], List[SolutionRow]]:
    groups: Dict[Tuple[int, ...], List[SolutionRow]] = defaultdict(list)
    for row in rows:
        groups[row.key(common)].append(row)
    return dict(groups)


def _align_and_join(left_rows: List[SolutionRow], right_rows: List[SolutionRow],
                    ) -> List[SolutionRow]:
    """Two-pointer row splitting followed by a positional join.

    ``left_rows`` carry the already-merged attributes, ``right_rows`` the new
    sub-view's attributes; neither is empty, and both share the same totals
    when the LP was solved exactly.  Whichever side has leftover tuples is
    merged against the last row of the other side, so no tuples are ever
    lost.
    """
    out: List[SolutionRow] = []
    i = j = 0
    left_remaining = left_rows[0].count
    right_remaining = right_rows[0].count

    while i < len(left_rows) and j < len(right_rows):
        take = min(left_remaining, right_remaining)
        if take > 0:
            out.append(_combine(left_rows[i], right_rows[j], take))
        left_remaining -= take
        right_remaining -= take
        if left_remaining == 0:
            i += 1
            left_remaining = left_rows[i].count if i < len(left_rows) else 0
        if right_remaining == 0:
            j += 1
            right_remaining = right_rows[j].count if j < len(right_rows) else 0

    # Leftovers (only possible with approximate LP solutions): keep tuples.
    while i < len(left_rows):
        count = left_remaining if left_remaining else left_rows[i].count
        out.append(_combine(left_rows[i], right_rows[-1], count))
        i += 1
        left_remaining = 0
    while j < len(right_rows):
        count = right_remaining if right_remaining else right_rows[j].count
        out.append(_combine(left_rows[-1], right_rows[j], count))
        j += 1
        right_remaining = 0
    return out


def _combine(left: SolutionRow, right: SolutionRow, count: int) -> SolutionRow:
    intervals = dict(left.intervals)
    for attr, interval in right.intervals.items():
        intervals.setdefault(attr, interval)
    cells = dict(left.cells)
    for attr, cell in right.cells.items():
        cells.setdefault(attr, cell)
    return SolutionRow(intervals=intervals, count=count,
                       label=left.label | right.label, cells=cells)
