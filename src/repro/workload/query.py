"""Workload query model.

A query in this framework (matching the paper's assumptions, Section 2.2) is
a select-project-join block over a connected set of relations:

* joins are PK-FK joins following the schema's dependency graph, rooted at a
  single "many"-side relation (the fact table of a star/snowflake pattern),
* filters are DNF predicates over non-key attributes, attached per relation.

This is exactly the query class the Hydra/DataSynth pipelines support after
workload preparation (the paper keeps only non-key filter predicates and
PK-FK joins and splits nested queries into independent sub-queries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import WorkloadError
from repro.predicates.dnf import DNFPredicate
from repro.schema.schema import Schema


@dataclass
class Query:
    """A select-project-join query over PK-FK joins with DNF filters.

    Parameters
    ----------
    query_id:
        Workload-unique identifier (e.g. ``"q17"``).
    root:
        The relation at the "many" end of every join in the query.
    relations:
        All relations referenced, including ``root``.  They must form a
        connected subgraph of the schema dependency graph reachable from the
        root via foreign keys.
    filters:
        Optional DNF filter per relation.  Relations without an entry are
        unfiltered.
    """

    query_id: str
    root: str
    relations: Tuple[str, ...]
    filters: Dict[str, DNFPredicate] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.root not in self.relations:
            self.relations = (self.root,) + tuple(self.relations)
        seen = set()
        ordered: List[str] = []
        for rel in self.relations:
            if rel not in seen:
                seen.add(rel)
                ordered.append(rel)
        self.relations = tuple(ordered)
        for rel in self.filters:
            if rel not in seen:
                raise WorkloadError(
                    f"query {self.query_id!r} filters relation {rel!r} it does not reference"
                )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def filter_for(self, relation: str) -> DNFPredicate:
        """Return the filter for ``relation`` (true when unfiltered)."""
        return self.filters.get(relation, DNFPredicate.true())

    def validate(self, schema: Schema) -> None:
        """Check the query against the schema.

        Raises :class:`WorkloadError` when a relation is unknown, the join
        graph is not reachable from the root, or a filter mentions key
        attributes or attributes of a different relation.
        """
        for rel in self.relations:
            if rel not in schema:
                raise WorkloadError(f"query {self.query_id!r}: unknown relation {rel!r}")
        for rel in self.relations:
            if rel == self.root:
                continue
            path = schema.join_path(self.root, rel)
            if path is None:
                raise WorkloadError(
                    f"query {self.query_id!r}: relation {rel!r} is not reachable from"
                    f" root {self.root!r} via foreign keys"
                )
            for step in path:
                if step not in self.relations:
                    raise WorkloadError(
                        f"query {self.query_id!r}: join path to {rel!r} passes through"
                        f" {step!r}, which the query does not reference"
                    )
        for rel, predicate in self.filters.items():
            relation = schema.relation(rel)
            for attr in predicate.attributes:
                if not relation.has_attribute(attr):
                    raise WorkloadError(
                        f"query {self.query_id!r}: filter attribute {attr!r} is not a"
                        f" non-key attribute of relation {rel!r}"
                    )

    def join_order(self, schema: Schema) -> List[Tuple[str, str, str]]:
        """Return the joins as ``(child, fk_column, parent)`` triples in a
        breadth-first order starting from the root.

        The resulting order guarantees that when a parent is joined, the FK
        column pointing at it is already available in the intermediate result.
        """
        order: List[Tuple[str, str, str]] = []
        visited = {self.root}
        frontier = [self.root]
        remaining = set(self.relations) - visited
        while frontier:
            next_frontier: List[str] = []
            for child in frontier:
                child_rel = schema.relation(child)
                for fk in child_rel.foreign_keys:
                    if fk.target in remaining:
                        order.append((child, fk.column, fk.target))
                        visited.add(fk.target)
                        remaining.discard(fk.target)
                        next_frontier.append(fk.target)
            frontier = next_frontier
        if remaining:
            raise WorkloadError(
                f"query {self.query_id!r}: relations {sorted(remaining)!r} are not"
                " connected to the root via foreign keys within the query"
            )
        return order


@dataclass
class Workload:
    """An ordered collection of queries forming a client workload."""

    name: str
    queries: List[Query] = field(default_factory=list)

    def __iter__(self):
        return iter(self.queries)

    def __len__(self) -> int:
        return len(self.queries)

    def add(self, query: Query) -> None:
        """Append a query to the workload."""
        self.queries.append(query)

    def validate(self, schema: Schema) -> None:
        """Validate every query against the schema."""
        ids = set()
        for query in self.queries:
            if query.query_id in ids:
                raise WorkloadError(f"duplicate query id {query.query_id!r}")
            ids.add(query.query_id)
            query.validate(schema)

    def relations(self) -> Tuple[str, ...]:
        """All relations referenced anywhere in the workload, sorted."""
        names = set()
        for query in self.queries:
            names.update(query.relations)
        return tuple(sorted(names))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Workload({self.name!r}, {len(self.queries)} queries)"
