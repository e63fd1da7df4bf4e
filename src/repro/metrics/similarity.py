"""Volumetric-similarity metrics (Figure 10 and Section 7.6).

Volumetric similarity is measured per cardinality constraint: the relative
difference between the row count the constraint demands (observed at the
client) and the row count the regenerated database actually produces.  Two
evaluation paths are provided:

* :func:`evaluate_on_database` executes the constraints against a
  database through the engine (joins and all) — over a regenerated
  database the engine works per summary row, so this too is scale
  independent;
* :func:`evaluate_on_summary` evaluates them analytically on the database
  summary by chasing foreign keys through the relation summaries, which is
  scale independent and therefore usable for the exabyte scenario.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.workload import ConstraintSet
from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.errors import SummaryError
from repro.schema.schema import Schema
from repro.summary.relation_summary import DatabaseSummary
from repro.workload.query import Query


@dataclass
class ConstraintResult:
    """Evaluation outcome for one cardinality constraint."""

    constraint: CardinalityConstraint
    expected: int
    actual: int

    @property
    def relative_error(self) -> float:
        """Signed relative error ``(actual - expected) / expected``.

        A constraint expecting zero rows contributes zero error when the
        regenerated database also produces zero rows, and an error equal to
        the produced count otherwise.
        """
        if self.expected == 0:
            return float(self.actual)
        return (self.actual - self.expected) / self.expected

    @property
    def absolute_relative_error(self) -> float:
        """Magnitude of the relative error."""
        return abs(self.relative_error)


@dataclass
class SimilarityReport:
    """All per-constraint results plus the aggregate views the paper plots."""

    results: List[ConstraintResult]

    def errors(self) -> np.ndarray:
        """Absolute relative errors of all constraints."""
        return np.array([r.absolute_relative_error for r in self.results], dtype=float)

    def signed_errors(self) -> np.ndarray:
        """Signed relative errors of all constraints."""
        return np.array([r.relative_error for r in self.results], dtype=float)

    def fraction_within(self, threshold: float) -> float:
        """Fraction of constraints with absolute relative error <= threshold."""
        if not self.results:
            return 1.0
        return float((self.errors() <= threshold + 1e-12).mean())

    def max_error(self) -> float:
        """Largest absolute relative error."""
        errors = self.errors()
        return float(errors.max()) if errors.size else 0.0

    def fraction_negative(self) -> float:
        """Fraction of constraints with fewer rows than requested."""
        if not self.results:
            return 0.0
        return float((self.signed_errors() < -1e-12).mean())

    def fraction_exact(self, tolerance: float = 1e-9) -> float:
        """Fraction of constraints satisfied exactly."""
        return self.fraction_within(tolerance)


# ---------------------------------------------------------------------- #
# evaluation against a regenerated database (through the engine)
# ---------------------------------------------------------------------- #
def _view_query(database: Database, relation: str) -> Query:
    """The denormalised-view query of ``relation``: the relation joined with
    every relation it references, directly or transitively."""
    closure = database.schema.referenced_closure(relation)
    return Query(query_id=f"__view_{relation}", root=relation,
                 relations=(relation, *closure))


def evaluate_with_executor(ccs: ConstraintSet,
                           executor: Executor) -> SimilarityReport:
    """Evaluate every constraint through an existing executor.

    Constraints are grouped per root relation and counted in one pass over
    that relation's denormalised view — in pipelined mode the view streams
    through the join operators as run batches, so a dynamically
    regenerated database is counted per summary row and never expanded,
    whatever scale it stands for.
    """
    indexed = list(enumerate(ccs))
    groups: Dict[str, List[Tuple[int, CardinalityConstraint]]] = {}
    for index, cc in indexed:
        groups.setdefault(cc.relation, []).append((index, cc))
    actuals: Dict[int, int] = {}
    for relation, pairs in groups.items():
        query = _view_query(executor.database, relation)
        counts = executor.count(query, [cc.predicate for _, cc in pairs])
        for (index, _), actual in zip(pairs, counts):
            actuals[index] = actual
    return SimilarityReport(results=[
        ConstraintResult(constraint=cc, expected=cc.cardinality,
                         actual=actuals[index])
        for index, cc in indexed
    ])


def evaluate_on_database(ccs: ConstraintSet, database: Database,
                         mode: str = "pipelined") -> SimilarityReport:
    """Evaluate every constraint against a regenerated database."""
    return evaluate_with_executor(ccs, Executor(database, mode=mode))


# ---------------------------------------------------------------------- #
# evaluation against a database summary (scale independent)
# ---------------------------------------------------------------------- #
class SummaryViewResolver:
    """Reconstructs denormalised view rows from relation summaries by chasing
    foreign keys, caching parent lookups along the way."""

    def __init__(self, summary: DatabaseSummary, schema: Schema) -> None:
        self.summary = summary
        self.schema = schema
        self._prefix: Dict[str, List[int]] = {}
        self._cache: Dict[Tuple[str, int], Dict[str, int]] = {}

    def _prefix_counts(self, relation: str) -> List[int]:
        if relation not in self._prefix:
            self._prefix[relation] = self.summary.relation(relation).prefix_counts()
        return self._prefix[relation]

    def attributes_for_pk(self, relation: str, pk: int) -> Dict[str, int]:
        """Return all (transitively reachable) attribute values of the tuple
        of ``relation`` whose primary key is ``pk``."""
        key = (relation, pk)
        if key in self._cache:
            return self._cache[key]
        relation_summary = self.summary.relation(relation)
        prefix = self._prefix_counts(relation)
        position = bisect_left(prefix, pk)
        if position >= len(relation_summary.rows):
            raise SummaryError(
                f"primary key {pk} outside relation {relation!r} ({prefix[-1] if prefix else 0} rows)"
            )
        values, _ = relation_summary.rows[position]
        out = self._expand_row(relation, values)
        self._cache[key] = out
        return out

    def _expand_row(self, relation: str, values: Sequence[int]) -> Dict[str, int]:
        rel = self.schema.relation(relation)
        relation_summary = self.summary.relation(relation)
        out: Dict[str, int] = {}
        for attribute in rel.attribute_names:
            out[attribute] = values[relation_summary.column_index(attribute)]
        for fk in rel.foreign_keys:
            fk_value = values[relation_summary.column_index(fk.column)]
            out.update(self.attributes_for_pk(fk.target, fk_value))
        return out

    def view_rows(self, relation: str) -> List[Tuple[Dict[str, int], int]]:
        """Return the denormalised view of ``relation`` as (row, count) pairs."""
        relation_summary = self.summary.relation(relation)
        return [
            (self._expand_row(relation, values), count)
            for values, count in relation_summary.rows
        ]


def evaluate_on_summary(ccs: ConstraintSet, summary: DatabaseSummary,
                        schema: Schema) -> SimilarityReport:
    """Evaluate every constraint analytically against a database summary."""
    resolver = SummaryViewResolver(summary, schema)
    view_rows: Dict[str, List[Tuple[Dict[str, int], int]]] = {}
    results: List[ConstraintResult] = []
    for cc in ccs:
        if cc.relation not in view_rows:
            view_rows[cc.relation] = resolver.view_rows(cc.relation)
        actual = sum(
            count for row, count in view_rows[cc.relation] if cc.predicate.evaluate(row)
        )
        results.append(ConstraintResult(constraint=cc, expected=cc.cardinality, actual=actual))
    return SimilarityReport(results=results)
