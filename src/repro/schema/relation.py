"""Relational schema model: attributes, keys and relations.

The data-regeneration problem (Section 2) assumes a warehouse-style schema:
every relation has a single integer (surrogate) primary key, joins are always
between a primary key and a foreign key, and filter predicates only mention
non-key attributes.  The classes here encode exactly that shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import SchemaError
from repro.predicates.interval import Interval


@dataclass(frozen=True)
class Attribute:
    """A non-key attribute of a relation.

    Parameters
    ----------
    name:
        Attribute name.  Names must be unique *across the whole schema*
        (TPC-DS / IMDB style ``ss_``, ``i_``, ... prefixes) so that borrowed
        view columns keep their identity; :class:`Schema` validates this.
    domain:
        Integer domain ``[lo, hi)`` of the attribute (all values are integers,
        as produced by the paper's anonymizer).
    """

    name: str
    domain: Interval

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key reference from one relation to another's primary key.

    Parameters
    ----------
    column:
        Name of the FK column in the referencing relation.
    target:
        Name of the referenced relation (whose primary key is the target).
    """

    column: str
    target: str

    def __post_init__(self) -> None:
        if not self.column or not self.target:
            raise SchemaError("foreign key column and target must be non-empty")


@dataclass
class Relation:
    """A relation (table) with a surrogate primary key, non-key attributes and
    foreign keys.

    Parameters
    ----------
    name:
        Relation name, unique within the schema.
    primary_key:
        Name of the integer surrogate primary-key column.
    attributes:
        The non-key attributes (filterable columns).
    foreign_keys:
        PK-FK references to other relations.
    row_count:
        Nominal number of rows in the client relation (used as the implicit
        ``|R| = k`` cardinality constraint and by the benchmark data
        generators).  May be overridden by scale factors.
    """

    name: str
    primary_key: str
    attributes: List[Attribute] = field(default_factory=list)
    foreign_keys: List[ForeignKey] = field(default_factory=list)
    row_count: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("relation name must be non-empty")
        if not self.primary_key:
            raise SchemaError(f"relation {self.name!r} must declare a primary key")
        seen = set()
        for attr in self.attributes:
            if attr.name in seen:
                raise SchemaError(
                    f"relation {self.name!r} has duplicate attribute {attr.name!r}"
                )
            seen.add(attr.name)
        if self.primary_key in seen:
            raise SchemaError(
                f"relation {self.name!r} lists its primary key among non-key attributes"
            )
        fk_columns = set()
        for fk in self.foreign_keys:
            if fk.column in fk_columns:
                raise SchemaError(
                    f"relation {self.name!r} has duplicate foreign-key column {fk.column!r}"
                )
            fk_columns.add(fk.column)
        if self.row_count < 0:
            raise SchemaError(f"relation {self.name!r} has negative row_count")

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def attribute_names(self) -> Tuple[str, ...]:
        """Names of the non-key attributes, in declaration order."""
        return tuple(a.name for a in self.attributes)

    @property
    def foreign_key_columns(self) -> Tuple[str, ...]:
        """Names of the FK columns, in declaration order."""
        return tuple(fk.column for fk in self.foreign_keys)

    @property
    def all_columns(self) -> Tuple[str, ...]:
        """All column names: primary key, foreign keys, then attributes."""
        return (self.primary_key,) + self.foreign_key_columns + self.attribute_names

    def attribute(self, name: str) -> Attribute:
        """Look up a non-key attribute by name."""
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise SchemaError(f"relation {self.name!r} has no attribute {name!r}")

    def has_attribute(self, name: str) -> bool:
        """Return ``True`` if the relation declares the non-key attribute."""
        return any(attr.name == name for attr in self.attributes)

    def scaled(self, factor: float) -> "Relation":
        """Return a copy of the relation with its row count scaled."""
        return Relation(
            name=self.name,
            primary_key=self.primary_key,
            attributes=list(self.attributes),
            foreign_keys=list(self.foreign_keys),
            row_count=max(1, int(round(self.row_count * factor))) if self.row_count else 0,
        )
