"""Conjunctive predicates over integer attributes.

A :class:`Conjunct` is the "sub-constraint" of Section 4.2 of the paper: a
conjunction of per-attribute constraints, each of which restricts the values
one attribute may take.  Attributes that are not mentioned are unconstrained
("true" in the paper's terminology).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.errors import PredicateError
from repro.predicates.interval import Interval, IntervalSet


class Conjunct:
    """A conjunction of per-attribute interval constraints.

    Parameters
    ----------
    constraints:
        Mapping from attribute name to the :class:`IntervalSet` of allowed
        values.  An attribute mapped to an empty set makes the whole conjunct
        unsatisfiable; such conjuncts are permitted but evaluate to ``False``
        everywhere.
    """

    __slots__ = ("_constraints",)

    def __init__(self, constraints: Mapping[str, IntervalSet] | None = None) -> None:
        items = dict(constraints or {})
        for attr, values in items.items():
            if not isinstance(values, IntervalSet):
                raise PredicateError(
                    f"constraint on {attr!r} must be an IntervalSet, got {type(values)!r}"
                )
        self._constraints: Dict[str, IntervalSet] = items

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def true(cls) -> "Conjunct":
        """Return the always-true conjunct (no attribute constrained)."""
        return cls({})

    @classmethod
    def from_range(cls, attribute: str, lo: int, hi: int) -> "Conjunct":
        """Return the conjunct ``lo <= attribute < hi``."""
        return cls({attribute: IntervalSet.single(lo, hi)})

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def constraints(self) -> Dict[str, IntervalSet]:
        """Copy of the per-attribute constraints."""
        return dict(self._constraints)

    @property
    def attributes(self) -> Tuple[str, ...]:
        """The attributes mentioned by the conjunct, sorted by name."""
        return tuple(sorted(self._constraints))

    @property
    def is_true(self) -> bool:
        """``True`` when no attribute is constrained."""
        return not self._constraints

    @property
    def is_unsatisfiable(self) -> bool:
        """``True`` when some attribute is constrained to the empty set."""
        return any(values.is_empty for values in self._constraints.values())

    def restriction(self, attribute: str) -> Optional[IntervalSet]:
        """Return this conjunct's restriction to ``attribute`` (``C^i`` in
        Definition 4.5), or ``None`` when the attribute is unconstrained."""
        return self._constraints.get(attribute)

    def evaluate(self, row: Mapping[str, int]) -> bool:
        """Return ``True`` if ``row`` (attribute -> value) satisfies the
        conjunct.  Attributes missing from the row are treated as failing."""
        for attr, values in self._constraints.items():
            value = row.get(attr)
            if value is None or not values.contains(value):
                return False
        return True

    # ------------------------------------------------------------------ #
    # algebra
    # ------------------------------------------------------------------ #
    def conjoin(self, other: "Conjunct") -> "Conjunct":
        """Return the conjunction of the two conjuncts."""
        merged = dict(self._constraints)
        for attr, values in other._constraints.items():
            if attr in merged:
                merged[attr] = merged[attr].intersect(values)
            else:
                merged[attr] = values
        return Conjunct(merged)

    def rename(self, mapping: Mapping[str, str]) -> "Conjunct":
        """Return a copy with attributes renamed via ``mapping``.

        Attributes absent from the mapping keep their original names.
        """
        return Conjunct(
            {mapping.get(attr, attr): values for attr, values in self._constraints.items()}
        )

    def project(self, attributes: Iterable[str]) -> "Conjunct":
        """Return the restriction of the conjunct to the given attributes."""
        keep = set(attributes)
        return Conjunct(
            {attr: values for attr, values in self._constraints.items() if attr in keep}
        )

    # ------------------------------------------------------------------ #
    # dunder plumbing
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Conjunct):
            return NotImplemented
        return self._constraints == other._constraints

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._constraints.items())))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_true:
            return "Conjunct(TRUE)"
        parts = [f"{attr} in {values!r}" for attr, values in sorted(self._constraints.items())]
        return "Conjunct(" + " AND ".join(parts) + ")"


def box_satisfies(conjunct: Conjunct, box: Mapping[str, Interval]) -> bool:
    """Return ``True`` if *every* point of the axis-aligned ``box`` satisfies
    ``conjunct``.  Attributes of the conjunct missing from the box are treated
    as unconstrained in the box (the box spans their whole domain), in which
    case the box can only satisfy the conjunct if the constraint is absent.
    """
    for attr, values in conjunct.constraints.items():
        interval = box.get(attr)
        if interval is None:
            return False
        if not values.covers(interval):
            return False
    return True


def box_overlaps(conjunct: Conjunct, box: Mapping[str, Interval]) -> bool:
    """Return ``True`` if *some* point of ``box`` satisfies ``conjunct``."""
    for attr, values in conjunct.constraints.items():
        interval = box.get(attr)
        if interval is None:
            continue
        if not values.overlaps(interval):
            return False
    return True
