"""The preprocessor: rewriting CCs onto views and decomposing views into
sub-views.

This is the module marked orange in the paper's Figure 2 (sourced from
DataSynth and shared by both pipelines):

1. rewrite every cardinality constraint over a relation or join expression
   into a selection constraint over the root relation's view;
2. build a *view-graph* per view (one node per constrained attribute, an edge
   when two attributes appear together in some CC), chordalise it, and use
   its maximal cliques as the sub-views over which partitioning and LP
   formulation operate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.constraints.cc import CardinalityConstraint
from repro.errors import ViewError
from repro.predicates.dnf import DNFPredicate
from repro.schema.schema import Schema
from repro.views.viewdef import ViewDefinition, ViewSet


@dataclass(frozen=True)
class ViewConstraint:
    """A cardinality constraint rewritten onto a view: a DNF predicate over
    view attributes and the target row count."""

    predicate: DNFPredicate
    cardinality: int
    query_id: Optional[str] = None

    @property
    def attributes(self) -> Tuple[str, ...]:
        """Attributes of the view mentioned by the predicate."""
        return self.predicate.attributes

    @property
    def is_size_constraint(self) -> bool:
        """``True`` for the unconditional view-size constraint."""
        return self.predicate.is_true


@dataclass
class SubView:
    """A sub-view: a subset of the view's constrained attributes (a maximal
    clique of the chordalised view-graph) plus the indices of the view
    constraints that fall entirely within its scope."""

    attributes: Tuple[str, ...]
    constraint_indices: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        self.attributes = tuple(sorted(self.attributes))

    def shares_with(self, other: "SubView") -> Tuple[str, ...]:
        """Attributes shared with another sub-view."""
        return tuple(sorted(set(self.attributes) & set(other.attributes)))


@dataclass
class ViewTask:
    """Everything the LP formulator needs for one view: the view definition,
    its rewritten constraints, the sub-view decomposition and the clique-tree
    edges along which consistency must be enforced."""

    view: ViewDefinition
    constraints: List[ViewConstraint] = field(default_factory=list)
    subviews: List[SubView] = field(default_factory=list)
    consistency_edges: List[Tuple[int, int]] = field(default_factory=list)
    total_rows: int = 0

    @property
    def relation(self) -> str:
        """The relation whose view this task regenerates."""
        return self.view.relation

    @property
    def constrained_attributes(self) -> Tuple[str, ...]:
        """View attributes mentioned by at least one constraint."""
        names: Set[str] = set()
        for vc in self.constraints:
            names.update(vc.attributes)
        return tuple(sorted(names))

    def merge_order(self) -> List[int]:
        """Sub-view indices in an order satisfying the running-intersection
        property (Section 5.1.1), derived from the clique-tree edges."""
        if not self.subviews:
            return []
        graph = nx.Graph()
        graph.add_nodes_from(range(len(self.subviews)))
        graph.add_edges_from(self.consistency_edges)
        order: List[int] = []
        for component in nx.connected_components(graph):
            start = min(component)
            order.extend(nx.dfs_preorder_nodes(graph.subgraph(component), source=start))
        return order


class Preprocessor:
    """Builds :class:`ViewTask` objects from a schema and a constraint set."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.views = ViewSet(schema)

    # ------------------------------------------------------------------ #
    # constraint rewriting
    # ------------------------------------------------------------------ #
    def rewrite_constraint(self, cc: CardinalityConstraint) -> ViewConstraint:
        """Rewrite a relation/join CC into a constraint over the root view."""
        view = self.views.view(cc.relation)
        for attr in cc.predicate.attributes:
            if not view.has_attribute(attr):
                raise ViewError(
                    f"constraint on {cc.relation!r} mentions attribute {attr!r} which is"
                    f" not part of its view (joined relations: {cc.joined_relations!r})"
                )
        return ViewConstraint(
            predicate=cc.predicate,
            cardinality=cc.cardinality,
            query_id=cc.query_id,
        )

    # ------------------------------------------------------------------ #
    # sub-view decomposition
    # ------------------------------------------------------------------ #
    def build_task(self, relation: str, constraints: Sequence[CardinalityConstraint]) -> ViewTask:
        """Build the :class:`ViewTask` for one relation from its CCs."""
        view = self.views.view(relation)
        view_constraints = [self.rewrite_constraint(cc) for cc in constraints]

        total_rows = 0
        for vc in view_constraints:
            if vc.is_size_constraint:
                total_rows = max(total_rows, vc.cardinality)
        if total_rows == 0:
            total_rows = self.schema.relation(relation).row_count
            if total_rows:
                view_constraints.append(
                    ViewConstraint(predicate=DNFPredicate.true(), cardinality=total_rows)
                )

        task = ViewTask(view=view, constraints=view_constraints, total_rows=total_rows)
        self._decompose(task)
        return task

    def _decompose(self, task: ViewTask) -> None:
        """Build the view-graph, chordalise it and extract maximal cliques."""
        constrained = task.constrained_attributes
        if not constrained:
            task.subviews = []
            task.consistency_edges = []
            return

        graph = nx.Graph()
        graph.add_nodes_from(constrained)
        for vc in task.constraints:
            attrs = vc.attributes
            for i, a in enumerate(attrs):
                for b in attrs[i + 1:]:
                    graph.add_edge(a, b)

        chordal = self._chordalize(graph)
        cliques = [tuple(sorted(c)) for c in nx.find_cliques(chordal)]
        cliques.sort()

        subviews: List[SubView] = []
        for clique in cliques:
            clique_set = set(clique)
            indices = tuple(
                i for i, vc in enumerate(task.constraints)
                if set(vc.attributes) <= clique_set
            )
            subviews.append(SubView(attributes=clique, constraint_indices=indices))
        task.subviews = subviews
        task.consistency_edges = self._clique_tree_edges(subviews)

    @staticmethod
    def _chordalize(graph: "nx.Graph") -> "nx.Graph":
        """Return a chordal completion of the view-graph."""
        if graph.number_of_nodes() == 0:
            return graph.copy()
        if nx.is_chordal(graph):
            return graph.copy()
        chordal, _alpha = nx.complete_to_chordal_graph(graph)
        return chordal

    @staticmethod
    def _clique_tree_edges(subviews: Sequence[SubView]) -> List[Tuple[int, int]]:
        """Return clique-tree edges (maximum-weight spanning tree on clique
        intersection sizes), which carry the consistency constraints."""
        if len(subviews) <= 1:
            return []
        weighted = nx.Graph()
        weighted.add_nodes_from(range(len(subviews)))
        for i in range(len(subviews)):
            for j in range(i + 1, len(subviews)):
                shared = subviews[i].shares_with(subviews[j])
                if shared:
                    weighted.add_edge(i, j, weight=len(shared))
        edges: List[Tuple[int, int]] = []
        for component in nx.connected_components(weighted):
            subgraph = weighted.subgraph(component)
            tree = nx.maximum_spanning_tree(subgraph, weight="weight")
            edges.extend((min(u, v), max(u, v)) for u, v in tree.edges())
        return sorted(edges)
