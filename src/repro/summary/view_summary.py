"""View summaries (Section 5.2).

A *view summary* instantiates a view solution: every solution row becomes a
concrete value combination (the left boundary of each attribute interval)
with an associated tuple count.  Attributes of the view that never appear in
any cardinality constraint are filled with the smallest value of their
domain — the deterministic choice that, per the paper, minimises the extra
tuples later needed for referential integrity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SummaryError
from repro.summary.solution import ViewSolution
from repro.views.viewdef import ViewDefinition


@dataclass
class ViewSummary:
    """A summarised view: value combinations over all view attributes with
    their tuple counts ("NumTuples")."""

    relation: str
    attributes: Tuple[str, ...]
    rows: List[Tuple[Tuple[int, ...], int]] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def total(self) -> int:
        """Total number of tuples represented by the summary."""
        return sum(count for _, count in self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def attribute_index(self, attribute: str) -> int:
        """Position of an attribute within the value tuples."""
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise SummaryError(
                f"view summary of {self.relation!r} has no attribute {attribute!r}"
            ) from None

    def project_row(self, values: Sequence[int], attributes: Sequence[str]) -> Tuple[int, ...]:
        """Project one value combination onto a subset of attributes."""
        positions = [self.attribute_index(a) for a in attributes]
        return tuple(values[p] for p in positions)

    def value_index(self) -> Dict[Tuple[int, ...], int]:
        """Mapping from value combination to its row position."""
        return {values: i for i, (values, _) in enumerate(self.rows)}

    def prefix_counts(self) -> List[int]:
        """Cumulative tuple counts, aligned with rows (inclusive)."""
        out: List[int] = []
        running = 0
        for _, count in self.rows:
            running += count
            out.append(running)
        return out

    # ------------------------------------------------------------------ #
    # mutation (used by the referential-consistency pass)
    # ------------------------------------------------------------------ #
    def add_row(self, values: Tuple[int, ...], count: int = 1) -> None:
        """Append a value combination with the given tuple count."""
        if len(values) != len(self.attributes):
            raise SummaryError("value combination width does not match view attributes")
        self.rows.append((tuple(values), count))


def instantiate_view_summary(view: ViewDefinition, solution: Optional[ViewSolution],
                             total_rows: int) -> ViewSummary:
    """Instantiate the view summary from a merged view solution.

    Parameters
    ----------
    view:
        The view definition (provides the full attribute list and domains).
    solution:
        The merged view solution; ``None`` for views without any constrained
        attribute, in which case a single row carrying all ``total_rows``
        tuples at the domain minima is produced.
    total_rows:
        The view's total tuple count (used only when ``solution`` is absent
        or empty).
    """
    attributes = view.attributes
    defaults = {attr: view.domain(attr).lo for attr in attributes}

    summary = ViewSummary(relation=view.relation, attributes=attributes)
    if solution is None or not solution.rows:
        if total_rows > 0:
            summary.add_row(tuple(defaults[attr] for attr in attributes), total_rows)
        return summary

    merged: Dict[Tuple[int, ...], int] = {}
    order: List[Tuple[int, ...]] = []
    for row in solution.rows:
        corner = row.corner()
        values = tuple(
            corner.get(attr, defaults[attr]) for attr in attributes
        )
        if values not in merged:
            merged[values] = 0
            order.append(values)
        merged[values] += row.count
    for values in order:
        summary.add_row(values, merged[values])
    return summary
