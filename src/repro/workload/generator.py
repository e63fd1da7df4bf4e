"""Random workload generation.

The paper evaluates Hydra on workloads derived from TPC-DS (131 queries,
"WLc"), a simplified variant ("WLs") and the JOB benchmark (260 queries).
Those query sets are not redistributable, so this module synthesises
workloads with the same structural profile: star/snowflake PK-FK joins rooted
at fact relations, DNF filter predicates over non-key attributes, and a
controllable amount of constant diversity (which is what drives the grid
blow-up of the DataSynth formulation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.predicates.conjunct import Conjunct
from repro.predicates.dnf import DNFPredicate
from repro.predicates.interval import IntervalSet
from repro.schema.schema import Schema
from repro.workload.query import Query, Workload


@dataclass
class WorkloadProfile:
    """Knobs controlling the shape of a generated workload.

    Parameters
    ----------
    num_queries:
        Number of queries to generate.
    root_relations:
        Relations eligible as query roots (typically the fact tables); when
        empty, every relation with at least one foreign key qualifies.
    max_joined_dimensions:
        Upper bound on how many referenced relations a query joins in
        (snowflake chains count every hop).
    max_filters_per_query:
        Upper bound on the number of relations that receive a filter.
    max_attributes_per_filter:
        Upper bound on the number of attributes constrained in one relation's
        filter — larger values grow the attribute cliques and therefore the
        grid size of the DataSynth formulation.
    max_total_filter_attributes:
        Upper bound on the number of attributes filtered across the whole
        query.  Join constraints conjoin every filter of the query, so this
        caps the size of the attribute cliques (and keeps the region
        partitioning tractable, as in the paper's TPC-DS-derived workloads).
    distinct_constants:
        Number of distinct cut points the generator may use per attribute;
        small values (the "simple" workload) keep grids tractable, large
        values (the "complex" workload) explode them.
    disjunct_probability:
        Probability that a filter is a two-conjunct DNF instead of a plain
        conjunction.
    dimension_filter_probability:
        Probability that any given joined dimension receives a filter.
    attribute_affinity:
        Skew of the per-relation attribute choice.  Real benchmark workloads
        filter a small set of popular attributes over and over (``d_year``,
        ``i_category``, ...), which keeps the view-graph sparse and its
        cliques small; ``0.0`` picks attributes uniformly, larger values
        concentrate the choice on the first attributes of each relation.
    """

    num_queries: int = 100
    root_relations: Tuple[str, ...] = ()
    max_joined_dimensions: int = 4
    max_filters_per_query: int = 3
    max_attributes_per_filter: int = 2
    max_total_filter_attributes: int = 5
    distinct_constants: int = 6
    disjunct_probability: float = 0.1
    dimension_filter_probability: float = 0.7
    attribute_affinity: float = 2.0


class WorkloadGenerator:
    """Deterministic (seeded) generator of star/snowflake SPJ workloads."""

    def __init__(self, schema: Schema, profile: WorkloadProfile, seed: int = 0) -> None:
        self.schema = schema
        self.profile = profile
        self.rng = np.random.default_rng(seed)
        self._cut_points: Dict[str, List[int]] = {}

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def generate(self, name: str = "workload") -> Workload:
        """Generate a workload with the configured profile."""
        roots = self._eligible_roots()
        workload = Workload(name=name)
        for index in range(self.profile.num_queries):
            root = roots[int(self.rng.integers(0, len(roots)))]
            workload.add(self._generate_query(f"q{index + 1}", root))
        workload.validate(self.schema)
        return workload

    # ------------------------------------------------------------------ #
    # query construction
    # ------------------------------------------------------------------ #
    def _eligible_roots(self) -> List[str]:
        if self.profile.root_relations:
            return list(self.profile.root_relations)
        roots = [rel.name for rel in self.schema.relations if rel.foreign_keys]
        if not roots:
            raise WorkloadError("schema has no relation with foreign keys to use as root")
        return roots

    def _generate_query(self, query_id: str, root: str) -> Query:
        relations = self._pick_join_relations(root)
        filters: Dict[str, DNFPredicate] = {}

        filterable = [r for r in relations if self.schema.relation(r).attributes]
        self.rng.shuffle(filterable)
        budget = int(self.rng.integers(1, self.profile.max_filters_per_query + 1))
        attribute_budget = self.profile.max_total_filter_attributes
        for relation in filterable:
            if len(filters) >= budget or attribute_budget <= 0:
                break
            if relation != root and self.rng.random() > self.profile.dimension_filter_probability:
                continue
            predicate = self._make_filter(relation, attribute_budget)
            if predicate is not None:
                filters[relation] = predicate
                attribute_budget -= len(predicate.attributes)

        # Guarantee at least one filter so that every query constrains data.
        if not filters and filterable:
            predicate = self._make_filter(filterable[0], self.profile.max_total_filter_attributes)
            if predicate is not None:
                filters[filterable[0]] = predicate

        return Query(query_id=query_id, root=root, relations=tuple(relations), filters=filters)

    def _pick_join_relations(self, root: str) -> List[str]:
        relations = [root]
        frontier = [root]
        budget = int(self.rng.integers(1, self.profile.max_joined_dimensions + 1))
        while frontier and len(relations) - 1 < budget:
            current = frontier.pop(0)
            targets = [fk.target for fk in self.schema.relation(current).foreign_keys
                       if fk.target not in relations]
            self.rng.shuffle(targets)
            for target in targets:
                if len(relations) - 1 >= budget:
                    break
                relations.append(target)
                frontier.append(target)
        return relations

    # ------------------------------------------------------------------ #
    # filter construction
    # ------------------------------------------------------------------ #
    def _make_filter(self, relation: str,
                     attribute_budget: Optional[int] = None) -> Optional[DNFPredicate]:
        rel = self.schema.relation(relation)
        if not rel.attributes:
            return None
        cap = min(self.profile.max_attributes_per_filter, len(rel.attributes))
        if attribute_budget is not None:
            cap = min(cap, attribute_budget)
        if cap <= 0:
            return None
        num_attrs = int(self.rng.integers(1, cap + 1))
        weights = self._attribute_weights(len(rel.attributes))
        picked = self.rng.choice(len(rel.attributes), size=num_attrs, replace=False, p=weights)
        attributes = [rel.attributes[i] for i in picked]

        conjunct = Conjunct(
            {attr.name: self._random_range(attr.name, attr.domain.lo, attr.domain.hi)
             for attr in attributes}
        )
        predicate = DNFPredicate.of(conjunct)
        if self.rng.random() < self.profile.disjunct_probability:
            other = Conjunct(
                {attr.name: self._random_range(attr.name, attr.domain.lo, attr.domain.hi)
                 for attr in attributes}
            )
            predicate = predicate.disjoin(DNFPredicate.of(other))
        return predicate

    def _attribute_weights(self, count: int) -> "np.ndarray":
        """Zipf-like weights over a relation's attributes (popular-first)."""
        ranks = np.arange(1, count + 1, dtype=float)
        weights = ranks ** (-self.profile.attribute_affinity) if self.profile.attribute_affinity > 0 \
            else np.ones(count)
        return weights / weights.sum()

    def _random_range(self, attribute: str, lo: int, hi: int) -> IntervalSet:
        """Pick a half-open range whose endpoints come from the attribute's
        pool of distinct constants (controlling constant diversity)."""
        points = self._constants_for(attribute, lo, hi)
        if len(points) < 2:
            return IntervalSet.single(lo, hi)
        first, second = sorted(
            self.rng.choice(len(points), size=2, replace=False).tolist()
        )
        start, end = points[first], points[second]
        if start == end:
            end = start + 1
        return IntervalSet.single(int(start), int(end))

    def _constants_for(self, attribute: str, lo: int, hi: int) -> List[int]:
        if attribute not in self._cut_points:
            width = hi - lo
            count = min(self.profile.distinct_constants, max(width, 1))
            if width <= count:
                points = list(range(lo, hi + 1))
            else:
                offsets = self.rng.choice(width, size=count, replace=False)
                points = sorted({lo + int(o) for o in offsets} | {lo, hi})
            self._cut_points[attribute] = points
        return self._cut_points[attribute]
