"""View definitions.

The DataSynth preprocessor (reused by Hydra, Section 3.2) replaces every
relation by a denormalised *view* consisting of the relation's own non-key
attributes plus the non-key attributes of every relation it references
through foreign keys, directly or transitively.  Cardinality constraints over
PK-FK join expressions then become plain selection constraints over the root
relation's view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.errors import ViewError
from repro.predicates.interval import Interval
from repro.schema.schema import Schema


@dataclass(frozen=True)
class ViewDefinition:
    """The view associated with one relation.

    Parameters
    ----------
    relation:
        The relation this view summarises (the "many" side).
    own_attributes:
        The relation's own non-key attributes.
    borrowed_attributes:
        Non-key attributes inherited from referenced relations (transitively),
        in dependency order.
    attribute_sources:
        For every view attribute, the relation that originally declares it.
    domains:
        Integer domain of every view attribute.
    direct_dependencies:
        The relations referenced directly through a foreign key, in FK
        declaration order (used for referential-consistency processing and
        foreign-key synthesis).
    """

    relation: str
    own_attributes: Tuple[str, ...]
    borrowed_attributes: Tuple[str, ...]
    attribute_sources: Mapping[str, str]
    domains: Mapping[str, Interval]
    direct_dependencies: Tuple[str, ...]

    @property
    def attributes(self) -> Tuple[str, ...]:
        """All view attributes: own first, then borrowed."""
        return self.own_attributes + self.borrowed_attributes

    def has_attribute(self, name: str) -> bool:
        """Return ``True`` if ``name`` is a view attribute."""
        return name in self.domains

    def domain(self, attribute: str) -> Interval:
        """Return the integer domain of a view attribute."""
        try:
            return self.domains[attribute]
        except KeyError:
            raise ViewError(
                f"view for {self.relation!r} has no attribute {attribute!r}"
            ) from None


class ViewSet:
    """All views of a schema, keyed by relation name."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._views: Dict[str, ViewDefinition] = {}
        for relation in schema.relation_names:
            self._views[relation] = self._build_view(relation)

    def _build_view(self, relation: str) -> ViewDefinition:
        rel = self.schema.relation(relation)
        own = tuple(rel.attribute_names)
        sources: Dict[str, str] = {name: relation for name in own}
        domains: Dict[str, Interval] = {a.name: a.domain for a in rel.attributes}

        borrowed: List[str] = []
        for dependency in self.schema.referenced_closure(relation):
            dep_rel = self.schema.relation(dependency)
            for attr in dep_rel.attributes:
                if attr.name in domains:
                    raise ViewError(
                        f"attribute {attr.name!r} borrowed twice while building the view"
                        f" of {relation!r}; attribute names must be globally unique"
                    )
                borrowed.append(attr.name)
                sources[attr.name] = dependency
                domains[attr.name] = attr.domain

        return ViewDefinition(
            relation=relation,
            own_attributes=own,
            borrowed_attributes=tuple(borrowed),
            attribute_sources=sources,
            domains=domains,
            direct_dependencies=tuple(fk.target for fk in rel.foreign_keys),
        )

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    def view(self, relation: str) -> ViewDefinition:
        """Return the view of ``relation``."""
        try:
            return self._views[relation]
        except KeyError:
            raise ViewError(f"no view for relation {relation!r}") from None

    def __getitem__(self, relation: str) -> ViewDefinition:
        return self.view(relation)

    def __contains__(self, relation: str) -> bool:
        return relation in self._views

    def __iter__(self):
        return iter(self._views.values())

    @property
    def relations(self) -> Tuple[str, ...]:
        """The relations with views, in schema order."""
        return tuple(self._views)
