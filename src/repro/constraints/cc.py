"""Cardinality constraints (CCs).

A cardinality constraint (Section 2.2) is the declarative unit of volumetric
information: a selection predicate over the non-key attributes of a relation
(or of a PK-FK join expression rooted at a relation) together with the number
of rows that satisfy it on the client database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConstraintError
from repro.predicates.dnf import DNFPredicate


@dataclass(frozen=True)
class CardinalityConstraint:
    """A single cardinality constraint ``|sigma_predicate(expr)| = cardinality``.

    Parameters
    ----------
    relation:
        Name of the *root* relation of the constrained expression.  For a
        constraint over a PK-FK join (e.g. ``R |><| S |><| T``), this is the
        relation at the "many" end whose view covers all attributes mentioned
        by the predicate (``R`` in the paper's Figure 1).
    predicate:
        DNF selection predicate over non-key attributes.  The always-true
        predicate expresses a plain table-size constraint ``|R| = k``.
    cardinality:
        Observed number of satisfying rows on the client database.
    joined_relations:
        The relations participating in the join expression (including the
        root).  Purely informational: after the preprocessor rewrites the
        constraint onto the root relation's view, only ``relation`` and
        ``predicate`` matter.
    query_id:
        Identifier of the workload query (AQP) this constraint came from.
    """

    relation: str
    predicate: DNFPredicate
    cardinality: int
    joined_relations: Tuple[str, ...] = ()
    query_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.cardinality < 0:
            raise ConstraintError("cardinality must be non-negative")
        if not self.relation:
            raise ConstraintError("constraint must name a root relation")
        if not self.joined_relations:
            object.__setattr__(self, "joined_relations", (self.relation,))

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def is_size_constraint(self) -> bool:
        """``True`` for plain table-size constraints ``|R| = k``."""
        return self.predicate.is_true

    @property
    def attributes(self) -> Tuple[str, ...]:
        """Attributes mentioned by the predicate."""
        return self.predicate.attributes

    def scaled(self, factor: float) -> "CardinalityConstraint":
        """Return a copy with the cardinality scaled by ``factor``.

        Used by the CODD-style metadata scaling of Section 7.4 (the exabyte
        experiment) where plans are executed at a small scale and the
        intermediate row counts are multiplied up to the target scale.
        """
        return CardinalityConstraint(
            relation=self.relation,
            predicate=self.predicate,
            cardinality=max(0, int(round(self.cardinality * factor))),
            joined_relations=self.joined_relations,
            query_id=self.query_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        expr = " |><| ".join(self.joined_relations)
        return f"CC(|sigma({expr})| = {self.cardinality})"
