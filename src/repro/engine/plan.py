"""Annotated query plans (AQPs).

An AQP (Section 2.1) is a query execution plan whose operator output edges are
annotated with the row cardinalities observed during execution.  The plan
shape used here matches the paper's Figure 1(c): the root relation is scanned
(and filtered), and dimension relations are filtered and joined in one at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.predicates.dnf import DNFPredicate


@dataclass
class PlanNode:
    """Base class for plan operators.  ``cardinality`` is the annotated
    number of output rows of the operator."""

    cardinality: int = 0

    def children(self) -> Tuple["PlanNode", ...]:
        """Child operators (empty for leaves)."""
        return ()

    def walk(self) -> Iterator["PlanNode"]:
        """Yield the node and all descendants in pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass
class ScanNode(PlanNode):
    """A full scan of a base relation."""

    relation: str = ""

    def label(self) -> str:
        """Human-readable operator label."""
        return f"Scan({self.relation})"


@dataclass
class FilterNode(PlanNode):
    """A selection on the output of a child operator."""

    relation: str = ""
    predicate: DNFPredicate = field(default_factory=DNFPredicate.true)
    child: Optional[PlanNode] = None

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,) if self.child is not None else ()

    def label(self) -> str:
        """Human-readable operator label."""
        return f"Filter({self.relation})"


@dataclass
class JoinNode(PlanNode):
    """A PK-FK join between the running intermediate result (``left``) and a
    filtered dimension relation (``right``)."""

    fk_column: str = ""
    parent_relation: str = ""
    left: Optional[PlanNode] = None
    right: Optional[PlanNode] = None

    def children(self) -> Tuple[PlanNode, ...]:
        out = []
        if self.left is not None:
            out.append(self.left)
        if self.right is not None:
            out.append(self.right)
        return tuple(out)

    def label(self) -> str:
        """Human-readable operator label."""
        return f"Join({self.fk_column} = {self.parent_relation}.pk)"


@dataclass
class AnnotatedQueryPlan:
    """An executed plan: the operator tree with cardinality annotations plus
    bookkeeping needed to convert it into cardinality constraints."""

    query_id: str
    root_relation: str
    root: PlanNode
    relations: Tuple[str, ...] = ()

    def nodes(self) -> List[PlanNode]:
        """All operators of the plan in pre-order."""
        return list(self.root.walk())

    def operator_cardinalities(self) -> Dict[str, int]:
        """Cardinality per operator label (for reporting and comparisons)."""
        out: Dict[str, int] = {}
        for i, node in enumerate(self.nodes()):
            label = getattr(node, "label", lambda: type(node).__name__)()
            out[f"{i}:{label}"] = node.cardinality
        return out

    def output_cardinality(self) -> int:
        """Cardinality of the plan's final output."""
        return self.root.cardinality
