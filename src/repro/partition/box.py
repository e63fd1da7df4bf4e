"""Axis-aligned boxes over integer attribute domains.

Partition blocks in this library are axis-aligned boxes: for every attribute
of the sub-view, a contiguous half-open interval.  A *region* (the unit that
receives an LP variable) is a set of boxes that all satisfy exactly the same
set of cardinality constraints.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import PartitionError
from repro.predicates.conjunct import Conjunct
from repro.predicates.dnf import DNFPredicate
from repro.predicates.interval import Interval


class Box:
    """An axis-aligned box: one contiguous interval per attribute."""

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Mapping[str, Interval]) -> None:
        if not intervals:
            raise PartitionError("a box needs at least one attribute")
        self._intervals: Tuple[Tuple[str, Interval], ...] = tuple(
            sorted(intervals.items())
        )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def attributes(self) -> Tuple[str, ...]:
        """The box's attributes, sorted."""
        return tuple(attr for attr, _ in self._intervals)

    @property
    def intervals(self) -> Dict[str, Interval]:
        """Mapping from attribute to its interval."""
        return dict(self._intervals)

    def interval(self, attribute: str) -> Interval:
        """Return the interval along ``attribute``."""
        for attr, interval in self._intervals:
            if attr == attribute:
                return interval
        raise PartitionError(f"box has no attribute {attribute!r}")

    def volume(self) -> int:
        """Number of integer points contained in the box."""
        out = 1
        for _, interval in self._intervals:
            out *= interval.width
        return out

    def contains_point(self, point: Mapping[str, int]) -> bool:
        """Return ``True`` if the point lies inside the box."""
        return all(interval.contains(point[attr]) for attr, interval in self._intervals)

    def corner(self) -> Dict[str, int]:
        """The box's lower-left corner (the representative value combination
        used when instantiating summaries, Section 5.2)."""
        return {attr: interval.lo for attr, interval in self._intervals}

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    def intersect(self, other: "Box") -> Optional["Box"]:
        """Return the intersection box, or ``None`` when disjoint.

        Both boxes must span the same attributes.
        """
        result: Dict[str, Interval] = {}
        other_intervals = other.intervals
        for attr, interval in self._intervals:
            cap = interval.intersect(other_intervals[attr])
            if cap is None:
                return None
            result[attr] = cap
        return Box(result)

    def subtract(self, other: "Box") -> List["Box"]:
        """Return disjoint boxes covering ``self`` minus ``other``.

        ``other`` must be fully contained in ``self`` along every attribute it
        intersects (callers subtract an intersection, so this always holds).
        """
        inner = self.intersect(other)
        if inner is None:
            return [self]
        pieces: List[Box] = []
        current = dict(self.intervals)
        inner_intervals = inner.intervals
        for attr in self.attributes:
            outer_iv = current[attr]
            inner_iv = inner_intervals[attr]
            if outer_iv.lo < inner_iv.lo:
                piece = dict(current)
                piece[attr] = Interval(outer_iv.lo, inner_iv.lo)
                pieces.append(Box(piece))
            if inner_iv.hi < outer_iv.hi:
                piece = dict(current)
                piece[attr] = Interval(inner_iv.hi, outer_iv.hi)
                pieces.append(Box(piece))
            current[attr] = inner_iv
        return pieces

    def split_along(self, attribute: str, points: Iterable[int]) -> List["Box"]:
        """Split the box along one attribute at the given cut points."""
        pieces = self.interval(attribute).split_at(points)
        if len(pieces) == 1:
            return [self]
        out: List[Box] = []
        base = self.intervals
        for piece in pieces:
            intervals = dict(base)
            intervals[attribute] = piece
            out.append(Box(intervals))
        return out

    # ------------------------------------------------------------------ #
    # predicate interaction
    # ------------------------------------------------------------------ #
    def satisfies_conjunct(self, conjunct: Conjunct) -> bool:
        """``True`` when *every* point of the box satisfies the conjunct.
        Conjunct attributes outside the box's attribute set are ignored
        (they are unconstrained within this sub-view's domain)."""
        for attr, values in conjunct.constraints.items():
            try:
                interval = self.interval(attr)
            except PartitionError:
                continue
            if not values.covers(interval):
                return False
        return True

    def satisfies_predicate(self, predicate: DNFPredicate) -> bool:
        """``True`` when every point of the box satisfies the DNF predicate.

        For boxes produced by a valid partition this coincides with "some
        point satisfies", because all points of a block behave identically
        with respect to every sub-constraint.
        """
        if predicate.is_true:
            return True
        return any(self.satisfies_conjunct(c) for c in predicate.conjuncts)

    # ------------------------------------------------------------------ #
    # dunder plumbing
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{attr}:{interval!r}" for attr, interval in self._intervals)
        return f"Box({body})"


def domain_box(attributes: Sequence[str], domains: Mapping[str, Interval]) -> Box:
    """Return the box spanning the full domain of the given attributes."""
    return Box({attr: domains[attr] for attr in attributes})


def conjunct_boxes(conjunct: Conjunct, universe: Box) -> List[Box]:
    """Decompose ``conjunct`` (clipped to ``universe``) into disjoint boxes.

    A conjunct whose per-attribute restriction is a union of intervals (an IN
    list, for example) expands into the cross product of the per-attribute
    pieces.
    """
    per_attr: List[Tuple[str, List[Interval]]] = []
    for attr in universe.attributes:
        domain_iv = universe.interval(attr)
        restriction = conjunct.restriction(attr)
        if restriction is None:
            per_attr.append((attr, [domain_iv]))
            continue
        clipped = restriction.intersect_interval(domain_iv)
        if clipped.is_empty:
            return []
        per_attr.append((attr, list(clipped.intervals)))

    boxes: List[Dict[str, Interval]] = [{}]
    for attr, pieces in per_attr:
        boxes = [dict(b, **{attr: piece}) for b in boxes for piece in pieces]
    return [Box(b) for b in boxes]
