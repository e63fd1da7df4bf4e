"""Containers and statistics for collections of cardinality constraints."""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from repro.constraints.cc import CardinalityConstraint


class ConstraintSet:
    """An ordered collection of cardinality constraints for one client
    workload, with the grouping and summary statistics the evaluation section
    of the paper relies on (Figures 9 and 16)."""

    def __init__(self, constraints: Iterable[CardinalityConstraint] = (), name: str = "ccs") -> None:
        self.name = name
        self._constraints: List[CardinalityConstraint] = list(constraints)

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    def add(self, constraint: CardinalityConstraint) -> None:
        """Append a constraint to the set."""
        self._constraints.append(constraint)

    def extend(self, constraints: Iterable[CardinalityConstraint]) -> None:
        """Append several constraints to the set."""
        self._constraints.extend(constraints)

    def __iter__(self) -> Iterator[CardinalityConstraint]:
        return iter(self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    def __getitem__(self, index: int) -> CardinalityConstraint:
        return self._constraints[index]

    @property
    def constraints(self) -> Tuple[CardinalityConstraint, ...]:
        """The constraints in insertion order."""
        return tuple(self._constraints)

    # ------------------------------------------------------------------ #
    # grouping
    # ------------------------------------------------------------------ #
    def by_relation(self) -> Dict[str, List[CardinalityConstraint]]:
        """Group constraints by their root relation (the view they will be
        rewritten onto by the preprocessor)."""
        groups: Dict[str, List[CardinalityConstraint]] = defaultdict(list)
        for cc in self._constraints:
            groups[cc.relation].append(cc)
        return dict(groups)

    def relations(self) -> Tuple[str, ...]:
        """Root relations appearing in the constraint set, sorted."""
        return tuple(sorted({cc.relation for cc in self._constraints}))

    def for_relation(self, relation: str) -> "ConstraintSet":
        """Return the subset of constraints rooted at ``relation``."""
        return ConstraintSet(
            (cc for cc in self._constraints if cc.relation == relation),
            name=f"{self.name}:{relation}",
        )

    def scaled(self, factor: float) -> "ConstraintSet":
        """Return a copy with every cardinality scaled by ``factor``."""
        return ConstraintSet((cc.scaled(factor) for cc in self._constraints), name=self.name)

    # ------------------------------------------------------------------ #
    # statistics (Figures 9 and 16)
    # ------------------------------------------------------------------ #
    def cardinalities(self) -> np.ndarray:
        """All constraint cardinalities as an array."""
        return np.array([cc.cardinality for cc in self._constraints], dtype=np.int64)

    def cardinality_histogram(self, bins_per_decade: int = 1) -> Dict[str, List[float]]:
        """Histogram of constraint cardinalities on a log10 scale.

        Returns a mapping with ``bin_edges`` (log10 of cardinality, zero
        cardinalities counted in the first bin) and ``counts``; this is the
        data behind Figures 9 and 16.
        """
        cards = self.cardinalities()
        if cards.size == 0:
            return {"bin_edges": [], "counts": []}
        logs = np.log10(np.maximum(cards, 1).astype(float))
        max_decade = int(math.ceil(logs.max())) if logs.size else 1
        max_decade = max(max_decade, 1)
        n_bins = max_decade * bins_per_decade
        counts, edges = np.histogram(logs, bins=n_bins, range=(0.0, float(max_decade)))
        return {"bin_edges": edges.tolist(), "counts": counts.tolist()}

    def summary(self) -> Dict[str, float]:
        """Summary statistics of the constraint cardinalities."""
        cards = self.cardinalities()
        if cards.size == 0:
            return {"count": 0, "min": 0, "max": 0, "median": 0}
        return {
            "count": int(cards.size),
            "min": int(cards.min()),
            "max": int(cards.max()),
            "median": float(np.median(cards)),
            "num_queries": len({cc.query_id for cc in self._constraints if cc.query_id}),
            "num_relations": len(self.relations()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConstraintSet({self.name!r}, {len(self)} CCs)"
