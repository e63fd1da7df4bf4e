"""DataSynth baseline (Arasu et al., reimplemented per Sections 3-5 and 7).

DataSynth shares Hydra's declarative front end (views, sub-views, cardinality
constraints) but differs in the three ways the paper's evaluation measures:

* **Grid partitioning** — every constrained attribute's domain is
  intervalised at the CC constants and the LP has one variable per cell of
  the cross product, which explodes combinatorially (Figures 12, 13, 17).
* **Sampling-based instantiation** — the LP solution is treated as a
  probability distribution from which complete view instances are sampled
  tuple by tuple; multinomial noise causes both positive and negative
  volumetric errors (Figure 10).
* **Materialised processing** — referential-integrity repair and relation
  extraction operate on the fully instantiated views, so their cost grows
  with the data scale (Figure 14), and sampling diversity inflates the number
  of extra tuples needed for integrity (Figure 11).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.constraints.workload import ConstraintSet
from repro.engine.database import Database
from repro.engine.table import Table
from repro.lp.formulate import STRATEGY_GRID, count_lp_variables, formulate_view_lp
from repro.lp.solver import ParallelLPSolver
from repro.schema.schema import Schema
from repro.views.preprocess import Preprocessor, ViewTask

import networkx as nx


@dataclass
class DataSynthConfig:
    """Tuning knobs of the DataSynth baseline.

    Its LP solver is fixed: one worker (the original system is serial), with
    decomposition and the default component-solution cache, on the
    continuous path.
    """

    max_grid_variables: int = 200_000
    seed: int = 7
    strict: bool = False


@dataclass
class ViewInstance:
    """A fully instantiated view: one value array per view attribute."""

    relation: str
    attributes: Tuple[str, ...]
    columns: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def num_rows(self) -> int:
        """Number of instantiated view tuples."""
        if not self.columns:
            return 0
        return int(next(iter(self.columns.values())).shape[0])

    def matrix(self, attributes: Sequence[str]) -> np.ndarray:
        """Return the selected attributes as an ``(N, k)`` matrix."""
        if not attributes:
            return np.zeros((self.num_rows, 0), dtype=np.int64)
        return np.column_stack([self.columns[a] for a in attributes])

    def append_rows(self, rows: np.ndarray, attributes: Sequence[str]) -> None:
        """Append rows given as an ``(M, k)`` matrix over ``attributes``."""
        for i, attribute in enumerate(attributes):
            self.columns[attribute] = np.concatenate(
                [self.columns[attribute], rows[:, i].astype(np.int64)]
            )


@dataclass
class DataSynthResult:
    """Outcome of a DataSynth run: the materialised database plus the
    diagnostics the comparative experiments report."""

    database: Database
    extra_tuples: Dict[str, int] = field(default_factory=dict)
    lp_variable_counts: Dict[str, int] = field(default_factory=dict)
    lp_seconds: float = 0.0
    instantiation_seconds: float = 0.0
    total_seconds: float = 0.0


class DataSynth:
    """The DataSynth baseline regenerator (materialises full instances, not
    summaries)."""

    def __init__(self, schema: Schema,
                 config: Optional[DataSynthConfig] = None) -> None:
        self.schema = schema
        self.config = config or DataSynthConfig()
        self.preprocessor = Preprocessor(schema)
        # DataSynth works with a continuous LP solution (the sampling step
        # does not need integrality).
        self.solver = ParallelLPSolver(
            workers=1, prefer_integer=False, strict=self.config.strict)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def count_lp_variables(self, ccs: ConstraintSet) -> Dict[str, int]:
        """Grid-partitioning LP sizes per relation, without materialising."""
        counts: Dict[str, int] = {}
        for relation, constraints in ccs.by_relation().items():
            task = self.preprocessor.build_task(relation, constraints)
            counts[relation] = count_lp_variables(task, STRATEGY_GRID)
        return counts

    def generate(self, ccs: ConstraintSet,
                 relations: Optional[Sequence[str]] = None) -> DataSynthResult:
        """Run the full DataSynth pipeline and materialise the database.

        Raises
        ------
        LPTooLargeError
            When any view's grid formulation exceeds the configured variable
            limit (the analogue of the LP-solver crash reported for the
            complex workload in Section 7.2).
        """
        started = time.perf_counter()
        rng = np.random.default_rng(self.config.seed)
        names = list(relations) if relations is not None else list(self.schema.relation_names)
        by_relation = ccs.by_relation()

        instances: Dict[str, ViewInstance] = {}
        lp_counts: Dict[str, int] = {}
        lp_seconds = 0.0
        for relation in names:
            task = self.preprocessor.build_task(relation, by_relation.get(relation, []))
            t0 = time.perf_counter()
            instance, variables = self._instantiate_view(task, rng)
            lp_seconds += time.perf_counter() - t0
            instances[relation] = instance
            lp_counts[relation] = variables

        t1 = time.perf_counter()
        extra = self._enforce_integrity(instances, names)
        database = self._extract_relations(instances, names)
        instantiation_seconds = time.perf_counter() - t1

        return DataSynthResult(
            database=database,
            extra_tuples=extra,
            lp_variable_counts=lp_counts,
            lp_seconds=lp_seconds,
            instantiation_seconds=instantiation_seconds,
            total_seconds=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------ #
    # view instantiation by sampling
    # ------------------------------------------------------------------ #
    def _instantiate_view(self, task: ViewTask,
                          rng: np.random.Generator) -> Tuple[ViewInstance, int]:
        view = task.view
        defaults = {attr: view.domain(attr).lo for attr in view.attributes}
        total = task.total_rows

        if not task.subviews:
            columns = {
                attr: np.full(total, defaults[attr], dtype=np.int64)
                for attr in view.attributes
            }
            return ViewInstance(view.relation, view.attributes, columns), 0

        view_lp = formulate_view_lp(
            task, strategy=STRATEGY_GRID, max_grid_variables=self.config.max_grid_variables
        )
        solution = self.solver.solve(view_lp.model)

        assigned: Dict[str, np.ndarray] = {}
        order = task.merge_order()
        for subview_index in order:
            block = view_lp.block_for(subview_index)
            counts = np.maximum(solution.values[block.start:block.stop], 0).astype(np.float64)
            corners = {attr: block.partition.corners(attr) for attr in block.attributes}
            shared = tuple(a for a in block.attributes if a in assigned)
            new_attrs = tuple(a for a in block.attributes if a not in assigned)
            if not assigned:
                cells = self._sample_cells(counts, total, rng)
                for attr in block.attributes:
                    assigned[attr] = corners[attr][cells]
                continue
            if not new_attrs:
                continue
            cells = self._sample_conditional(
                counts, corners, shared, assigned, total, rng
            )
            for attr in new_attrs:
                assigned[attr] = corners[attr][cells]

        columns: Dict[str, np.ndarray] = {}
        for attr in view.attributes:
            if attr in assigned:
                columns[attr] = assigned[attr]
            else:
                columns[attr] = np.full(total, defaults[attr], dtype=np.int64)
        return ViewInstance(view.relation, view.attributes, columns), view_lp.num_variables

    @staticmethod
    def _sample_cells(counts: np.ndarray, total: int,
                      rng: np.random.Generator) -> np.ndarray:
        """Sample ``total`` cell indices proportionally to the LP counts."""
        if total <= 0:
            return np.zeros(0, dtype=np.int64)
        weight = counts.sum()
        if weight <= 0:
            return np.zeros(total, dtype=np.int64)
        probabilities = counts / weight
        return rng.choice(len(counts), size=total, p=probabilities)

    def _sample_conditional(self, counts: np.ndarray, corners: Mapping[str, np.ndarray],
                            shared: Tuple[str, ...], assigned: Mapping[str, np.ndarray],
                            total: int, rng: np.random.Generator) -> np.ndarray:
        """Sample cell indices conditioned on the already-assigned shared
        attributes (the ``Prob(C | B)`` step of the paper's description)."""
        if not shared:
            return self._sample_cells(counts, total, rng)

        cell_shared = np.column_stack([corners[a] for a in shared])
        row_shared = np.column_stack([assigned[a] for a in shared])

        groups: Dict[Tuple[int, ...], np.ndarray] = {}
        unique_cells, cell_inverse = np.unique(cell_shared, axis=0, return_inverse=True)
        for group_index in range(len(unique_cells)):
            groups[tuple(int(v) for v in unique_cells[group_index])] = np.flatnonzero(
                cell_inverse == group_index
            )

        result = np.zeros(total, dtype=np.int64)
        unique_rows, row_inverse = np.unique(row_shared, axis=0, return_inverse=True)
        for group_index in range(len(unique_rows)):
            members = np.flatnonzero(row_inverse == group_index)
            key = tuple(int(v) for v in unique_rows[group_index])
            candidate_cells = groups.get(key)
            if candidate_cells is None or counts[candidate_cells].sum() <= 0:
                # Sampling noise produced a shared value the conditional
                # distribution has no mass for; fall back to the marginal.
                result[members] = self._sample_cells(counts, len(members), rng)
                continue
            local = counts[candidate_cells]
            probabilities = local / local.sum()
            picks = rng.choice(len(candidate_cells), size=len(members), p=probabilities)
            result[members] = candidate_cells[picks]
        return result

    # ------------------------------------------------------------------ #
    # referential integrity on materialised views
    # ------------------------------------------------------------------ #
    def _enforce_integrity(self, instances: Dict[str, ViewInstance],
                           names: Sequence[str]) -> Dict[str, int]:
        extra = {name: 0 for name in names}
        order = [name for name in nx.topological_sort(self.schema.dependency_graph)
                 if name in instances]
        views = self.preprocessor.views
        for target in order:
            target_instance = instances[target]
            target_attrs = views.view(target).attributes
            if not target_attrs:
                continue
            existing = target_instance.matrix(target_attrs)
            known = set(map(tuple, np.unique(existing, axis=0))) if existing.size else set()
            for dependent in self.schema.dependents_of(target):
                if dependent not in instances:
                    continue
                dependent_matrix = instances[dependent].matrix(target_attrs)
                if dependent_matrix.size == 0:
                    continue
                needed = np.unique(dependent_matrix, axis=0)
                missing = [row for row in map(tuple, needed) if row not in known]
                if not missing:
                    continue
                target_instance.append_rows(
                    np.array(missing, dtype=np.int64), target_attrs
                )
                known.update(missing)
                extra[target] += len(missing)
        return extra

    # ------------------------------------------------------------------ #
    # relation extraction
    # ------------------------------------------------------------------ #
    def _extract_relations(self, instances: Dict[str, ViewInstance],
                           names: Sequence[str]) -> Database:
        views = self.preprocessor.views
        database = Database(self.schema, name="datasynth")
        for relation in names:
            rel = self.schema.relation(relation)
            instance = instances[relation]
            num_rows = instance.num_rows
            columns: Dict[str, np.ndarray] = {
                rel.primary_key: np.arange(1, num_rows + 1, dtype=np.int64)
            }
            for fk in rel.foreign_keys:
                parent_instance = instances[fk.target]
                parent_attrs = views.view(fk.target).attributes
                columns[fk.column] = self._match_foreign_keys(
                    instance, parent_instance, parent_attrs
                )
            for attribute in rel.attribute_names:
                columns[attribute] = instance.columns[attribute]
            database.attach(relation, Table(columns, name=relation))
        return database

    @staticmethod
    def _match_foreign_keys(child: ViewInstance, parent: ViewInstance,
                            parent_attrs: Tuple[str, ...]) -> np.ndarray:
        """Assign each child row the primary key of a parent row carrying the
        same borrowed attribute values (the first such row)."""
        if not parent_attrs:
            return np.ones(child.num_rows, dtype=np.int64)
        parent_matrix = parent.matrix(parent_attrs)
        child_matrix = child.matrix(parent_attrs)

        parent_unique, parent_first = np.unique(parent_matrix, axis=0, return_index=True)
        lookup = {
            tuple(int(v) for v in row): int(index) + 1
            for row, index in zip(parent_unique, parent_first)
        }
        child_unique, child_inverse = np.unique(child_matrix, axis=0, return_inverse=True)
        mapped = np.zeros(len(child_unique), dtype=np.int64)
        for i, row in enumerate(child_unique):
            key = tuple(int(v) for v in row)
            mapped[i] = lookup.get(key, 1)
        return mapped[child_inverse]
