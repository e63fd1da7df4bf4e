"""Exactness of the region-partition ladder in :mod:`repro.lp.formulate`.

The ladder memoises sub-view sweeps across rungs, stops a rung at the first
sub-view that takes it over budget and keeps each partition as arrays.  None
of that may change the LP: the oracle below is the plain ladder — every
sub-view re-partitioned at every rung with a sweep that builds a dict of
intervals per state — and both must agree variable for variable.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import pytest

import repro
from repro import (
    complex_workload,
    extract_constraints,
    generate_database,
    simple_workload,
    tpcds_schema,
)
from repro.errors import PartitionBudgetError, PartitionError
from repro.hydra.pipeline import Hydra
from repro.lp.decompose import decompose_model
from repro.lp.formulate import (
    _coarsen_segments,
    _region_ladder,
    _shared_attributes,
    formulate_view_lp,
)
from repro.partition.box import Box
from repro.partition.signature import (
    SignaturePartition,
    _locate_cell,
    shared_segments_from_constraints,
)
from repro.predicates.interval import Interval, elementary_segments
from repro.views.preprocess import Preprocessor, ViewTask


# ---------------------------------------------------------------------- #
# oracle: the plain ladder and the plain sweep
# ---------------------------------------------------------------------- #
#: One LP variable: its label, its shared cell as (attribute, segment index)
#: pairs and its representative box.
Variable = Tuple[FrozenSet[int], Tuple[Tuple[str, int], ...], Box]


def oracle_partition_variables(attributes, domains, constraints, constraint_indices,
                               shared_segments, max_states=None) -> List[Variable]:
    """The sweep with one interval dict per state, building every variable."""
    if not attributes:
        raise PartitionError("sub-view must have at least one attribute")
    conjuncts = []
    conjunct_owner: List[int] = []
    always_true: Set[int] = set()
    for position, constraint in enumerate(constraints):
        if constraint.predicate.is_true:
            always_true.add(position)
            continue
        for conjunct in constraint.predicate.conjuncts:
            conjuncts.append((len(conjuncts), conjunct))
            conjunct_owner.append(position)
    num_conjuncts = len(conjuncts)
    full_mask = (1 << num_conjuncts) - 1 if num_conjuncts else 0

    per_attribute = []
    for attribute in attributes:
        domain = domains[attribute]
        cuts: Set[int] = set()
        for _, conjunct in conjuncts:
            restriction = conjunct.restriction(attribute)
            if restriction is not None:
                cuts.update(restriction.boundaries())
        shared = shared_segments.get(attribute)
        if shared is not None:
            for segment in shared:
                cuts.add(segment.lo)
                cuts.add(segment.hi)
        segments = elementary_segments(domain, sorted(cuts))
        annotated = []
        for segment in segments:
            mask = 0
            for bit, (_, conjunct) in enumerate(conjuncts):
                restriction = conjunct.restriction(attribute)
                if restriction is None or restriction.covers(segment):
                    mask |= 1 << bit
            cell = _locate_cell(segment, shared) if shared is not None else None
            annotated.append((segment, mask, cell))
        per_attribute.append((attribute, annotated))

    states: Dict[Tuple[int, tuple], Dict[str, Interval]] = {(full_mask, ()): {}}
    for attribute, annotated in per_attribute:
        next_states: Dict[Tuple[int, tuple], Dict[str, Interval]] = {}
        for (mask, cells), representative in states.items():
            for segment, segment_mask, cell in annotated:
                new_mask = mask & segment_mask
                new_cells = cells + (((attribute, cell),) if cell is not None else ())
                key = (new_mask, new_cells)
                if key in next_states:
                    continue
                extended = dict(representative)
                extended[attribute] = segment
                next_states[key] = extended
                if max_states is not None and len(next_states) > max_states:
                    raise PartitionBudgetError("over budget")
        states = next_states

    variables: Dict[Tuple[FrozenSet[int], tuple], Dict[str, Interval]] = {}
    for (mask, cells), representative in states.items():
        satisfied: Set[int] = set(always_true)
        for bit, owner in enumerate(conjunct_owner):
            if mask & (1 << bit):
                satisfied.add(owner)
        label = frozenset(constraint_indices[p] for p in satisfied)
        key = (label, cells)
        if key not in variables:
            variables[key] = representative
    out = [(label, cells, Box(representative))
           for (label, cells), representative in variables.items()]
    out.sort(key=lambda v: (sorted(v[0]), v[1]))
    return out


def oracle_region_variables(task: ViewTask, max_region_variables: int,
                            ) -> Tuple[Dict[int, List[Variable]], Tuple[str, ...]]:
    """The ladder that re-partitions every sub-view at every rung.  Its one
    departure from the plain loop is the tie-break by name when dropping an
    attribute, without which the oracle itself would depend on hash order."""
    shared = _shared_attributes(task)

    def segments_for(active: Set[str], max_segments: Optional[int]) -> Dict[str, List]:
        segments: Dict[str, List] = {}
        for attribute in active:
            in_scope = [
                task.constraints[i]
                for subview in task.subviews if attribute in subview.attributes
                for i in subview.constraint_indices
            ]
            full = shared_segments_from_constraints(
                attribute, task.view.domains[attribute], in_scope
            )
            segments[attribute] = _coarsen_segments(full, max_segments)
        return segments

    granularities: List[Optional[int]] = [None, 12, 6, 3, 2]
    active = set(shared)
    attempt = 0
    while True:
        max_segments = granularities[min(attempt, len(granularities) - 1)]
        if attempt >= len(granularities) and active:
            segments_probe = segments_for(active, granularities[-1])
            widest = max(sorted(active), key=lambda a: len(segments_probe[a]))
            active.discard(widest)
        segments = segments_for(active, max_segments)
        out: Dict[int, List[Variable]] = {}
        total = 0
        over_budget = False
        for index, subview in enumerate(task.subviews):
            constraints = [task.constraints[i] for i in subview.constraint_indices]
            try:
                out[index] = oracle_partition_variables(
                    subview.attributes, task.view.domains, constraints,
                    subview.constraint_indices, segments,
                    max_states=max_region_variables if active else None,
                )
            except PartitionBudgetError:
                over_budget = True
                break
            total += len(out[index])
        if not over_budget and (total <= max_region_variables or not active):
            return out, tuple(sorted(active))
        if not active:
            return out, ()
        attempt += 1


# ---------------------------------------------------------------------- #
# inputs: the end-to-end benchmark's smoke-size TPC-DS workloads
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def smoke_client():
    schema = tpcds_schema(scale_factor=0.00002, dimension_scale=0.002)
    return schema, generate_database(schema, seed=1)


@pytest.fixture(scope="module")
def smoke_constraints(smoke_client):
    schema, database = smoke_client
    return schema, {
        "wlc": extract_constraints(database, complex_workload(schema, 30)).constraints,
        "wls": extract_constraints(database, simple_workload(schema, 20)).constraints,
    }


@pytest.fixture(scope="module")
def view_tasks(smoke_client) -> List[ViewTask]:
    schema, database = smoke_client
    workloads = [complex_workload(schema, 30, seed=seed) for seed in (12, 13)]
    workloads += [simple_workload(schema, 20, seed=seed) for seed in (13, 14)]
    tasks = []
    for workload in workloads:
        constraints = extract_constraints(database, workload).constraints
        preprocessor = Preprocessor(schema)
        for relation, ccs in sorted(constraints.by_relation().items()):
            task = preprocessor.build_task(relation, ccs)
            if task.subviews:
                tasks.append(task)
    return tasks


def triples(partition: SignaturePartition) -> List[Variable]:
    """The partition's variables read off its arrays, one by one."""
    return [(label, tuple(cell.items()), Box(intervals))
            for intervals, label, cell in partition.variables(range(len(partition)))]


BUDGETS = (64, 512, 8000)


@pytest.mark.parametrize("budget", BUDGETS)
def test_ladder_matches_plain_ladder(view_tasks, budget):
    for task in view_tasks:
        expected, aligned = oracle_region_variables(task, budget)
        ladder = _region_ladder(task, budget)
        assert ladder.aligned == aligned, task.relation
        assert sorted(ladder.partitions) == sorted(expected), task.relation
        for index, partition in ladder.partitions.items():
            assert triples(partition) == expected[index], \
                (task.relation, index)


def test_ladder_inputs_reach_every_exit(view_tasks):
    """The cases above stop at the first rung, climb past every granularity
    into the drop step, and leave with no alignment at all — so each exit of
    the ladder is compared."""
    rungs = set()
    unaligned = False
    for budget in BUDGETS:
        for task in view_tasks:
            ladder = _region_ladder(task, budget)
            rungs.add(ladder.rungs)
            unaligned |= not ladder.aligned and bool(_shared_attributes(task))
    assert 1 in rungs
    assert max(rungs) > 6
    assert unaligned


def test_formulation_is_pinned(smoke_constraints):
    """Per-relation variable counts and the component keys of the smoke-size
    workloads (formulation only: nothing here is solved)."""
    schema, workloads = smoke_constraints
    expected = {
        "wlc": ({"catalog_sales": 9, "customer": 38, "date_dim": 31, "inventory": 9,
                 "item": 38, "promotion": 1, "store": 20, "store_returns": 329,
                 "store_sales": 191, "web_sales": 290},
                "5d27bb213c15c8d1422840bd97eff4acdde561a5b7bf42a2399699b222c90c4a"),
        "wls": ({"catalog_page": 2, "catalog_sales": 16, "customer": 2, "date_dim": 5,
                 "household_demographics": 1, "inventory": 8, "item": 4, "promotion": 4,
                 "store": 1, "store_returns": 4, "store_sales": 9, "web_sales": 5},
                "5a4de84dc9f3e721895903bbdec60eb2fdc8e9b37433d761a95ef1b64e250ced"),
    }
    for which, ccs in workloads.items():
        hydra = Hydra(schema)
        by_relation = ccs.by_relation()
        counts = {}
        for relation in schema.relation_names:
            task = hydra.preprocessor.build_task(relation, by_relation.get(relation, []))
            if task.subviews:
                counts[relation] = formulate_view_lp(task).num_variables
        manifest = hydra.component_manifest(ccs)
        digest = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()
        assert (counts, digest) == expected[which], which


def test_view_lp_allocates_fewer_objects_than_variables(smoke_client, smoke_constraints):
    """A view LP and its decomposition are arrays: holding them keeps fewer
    garbage-collector-tracked objects alive than the LP has variables."""
    schema, workloads = smoke_constraints
    task = Preprocessor(schema).build_task(
        "store_returns", workloads["wlc"].by_relation()["store_returns"])
    gc.collect()
    before = len(gc.get_objects())
    view_lp = formulate_view_lp(task)
    decomposition = decompose_model(view_lp.model)
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert (view_lp.num_variables, view_lp.model.num_constraints) == (329, 96)
    assert decomposition.components
    assert grown < view_lp.num_variables


FORCED_DROP = """
import hashlib, json
from repro import complex_workload, extract_constraints, generate_database, tpcds_schema
from repro.lp.decompose import decompose_model
from repro.lp.formulate import formulate_view_lp
from repro.views.preprocess import Preprocessor

schema = tpcds_schema(scale_factor=0.00002, dimension_scale=0.002)
ccs = extract_constraints(generate_database(schema, seed=1),
                          complex_workload(schema, 30)).constraints.by_relation()
out = {}
for relation in ("store_returns", "web_sales"):
    view_lp = formulate_view_lp(Preprocessor(schema).build_task(relation, ccs[relation]),
                                max_region_variables=64)
    out[relation] = [list(view_lp.aligned_attributes),
                     sorted(c.key for c in decompose_model(view_lp.model).components)]
print(json.dumps(out))
"""


def test_forced_drop_is_independent_of_hash_seed():
    """Dropping an alignment attribute breaks ties by name, so a restart
    (a new string-hash seed) formulates the same LP for the same request."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    results = []
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        completed = subprocess.run([sys.executable, "-c", FORCED_DROP], env=env,
                                   capture_output=True, text=True, timeout=300, check=True)
        results.append(json.loads(completed.stdout))
    assert results[0] == results[1] == results[2]
