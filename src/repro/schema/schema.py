"""The :class:`Schema`: a validated collection of relations plus the
referential dependency graph used throughout the pipeline."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx

from repro.errors import SchemaError
from repro.schema.relation import Attribute, Relation


class Schema:
    """A relational schema with PK-FK referential constraints.

    The schema validates the structural assumptions the paper makes
    (Section 2.2 and Section 5.3):

    * every relation has a surrogate integer primary key,
    * joins are only PK-FK, so dependencies form a directed graph with an edge
      ``u -> v`` when relation ``u`` has a foreign key into ``v``,
    * the dependency graph must be a DAG (Hydra supports DAGs; DataSynth in
      the paper only supports trees, which we model as a flag),
    * attribute names are globally unique so that borrowed view columns keep
      their identity, and
    * each relation references any other relation through at most one foreign
      key (single role per dimension), which keeps the view-column naming of
      Section 3.2 unambiguous.
    """

    def __init__(self, relations: Iterable[Relation], name: str = "schema") -> None:
        self.name = name
        self._relations: Dict[str, Relation] = {}
        for rel in relations:
            if rel.name in self._relations:
                raise SchemaError(f"duplicate relation {rel.name!r}")
            self._relations[rel.name] = rel
        self._validate()
        self._graph = self._build_dependency_graph()

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        seen_attrs: Dict[str, str] = {}
        for rel in self._relations.values():
            for attr in rel.attributes:
                owner = seen_attrs.get(attr.name)
                if owner is not None:
                    raise SchemaError(
                        f"attribute {attr.name!r} appears in both {owner!r} and"
                        f" {rel.name!r}; attribute names must be globally unique"
                    )
                seen_attrs[attr.name] = rel.name
            targets = set()
            for fk in rel.foreign_keys:
                if fk.target not in self._relations:
                    raise SchemaError(
                        f"relation {rel.name!r} references unknown relation {fk.target!r}"
                    )
                if fk.target == rel.name:
                    raise SchemaError(f"relation {rel.name!r} references itself")
                if fk.target in targets:
                    raise SchemaError(
                        f"relation {rel.name!r} references {fk.target!r} through more than"
                        " one foreign key; only a single role per dimension is supported"
                    )
                targets.add(fk.target)

    def _build_dependency_graph(self) -> "nx.DiGraph":
        graph = nx.DiGraph()
        graph.add_nodes_from(self._relations)
        for rel in self._relations.values():
            for fk in rel.foreign_keys:
                graph.add_edge(rel.name, fk.target)
        if not nx.is_directed_acyclic_graph(graph):
            raise SchemaError("referential dependency graph must be a DAG")
        return graph

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def relations(self) -> Tuple[Relation, ...]:
        """All relations, in insertion order."""
        return tuple(self._relations.values())

    @property
    def relation_names(self) -> Tuple[str, ...]:
        """Names of all relations, in insertion order."""
        return tuple(self._relations)

    def relation(self, name: str) -> Relation:
        """Look up a relation by name."""
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __len__(self) -> int:
        return len(self._relations)

    def attribute_owner(self, attribute: str) -> Relation:
        """Return the relation that declares the given non-key attribute."""
        for rel in self._relations.values():
            if rel.has_attribute(attribute):
                return rel
        raise SchemaError(f"no relation declares attribute {attribute!r}")

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute anywhere in the schema."""
        return self.attribute_owner(name).attribute(name)

    # ------------------------------------------------------------------ #
    # dependency graph helpers
    # ------------------------------------------------------------------ #
    @property
    def dependency_graph(self) -> "nx.DiGraph":
        """Directed graph with an edge ``u -> v`` when ``u`` has an FK to
        ``v`` ("u depends on v", footnote 2 of the paper)."""
        return self._graph.copy()

    def is_tree_structured(self) -> bool:
        """Return ``True`` when the dependency graph (viewed as undirected)
        is a forest.  DataSynth only supports this case."""
        undirected = self._graph.to_undirected()
        return nx.is_forest(undirected) if undirected.number_of_edges() else True

    def topological_order(self) -> List[str]:
        """Relations ordered so that every relation appears *after* all the
        relations it depends on (referenced relations first)."""
        order = list(nx.topological_sort(self._graph))
        order.reverse()
        return order

    def referenced_closure(self, relation: str) -> List[str]:
        """All relations reachable from ``relation`` through FKs (directly or
        transitively), excluding ``relation`` itself, in topological order
        (closest dependencies last)."""
        rel = self.relation(relation)
        reachable = nx.descendants(self._graph, rel.name)
        order = [r for r in self.topological_order() if r in reachable]
        return order

    def dependents_of(self, relation: str) -> List[str]:
        """Relations that reference ``relation`` directly through an FK."""
        return sorted(self._graph.predecessors(relation))

    def join_path(self, source: str, target: str) -> Optional[List[str]]:
        """Return the FK path from ``source`` to ``target`` (list of relation
        names, inclusive), or ``None`` when ``target`` is not reachable."""
        if source == target:
            return [source]
        try:
            return nx.shortest_path(self._graph, source, target)
        except nx.NetworkXNoPath:
            return None

    # ------------------------------------------------------------------ #
    # scaling
    # ------------------------------------------------------------------ #
    def scaled(self, factor: float) -> "Schema":
        """Return a copy of the schema with all row counts scaled by
        ``factor`` (dimension-style relations are scaled too; callers who want
        fixed dimensions should scale per-relation instead)."""
        return Schema([rel.scaled(factor) for rel in self._relations.values()], name=self.name)

    def total_rows(self) -> int:
        """Total nominal number of rows across all relations."""
        return sum(rel.row_count for rel in self._relations.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Schema({self.name!r}, {len(self._relations)} relations)"
