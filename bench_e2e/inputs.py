"""Inputs of the end-to-end benchmark: schema, client data, workloads, drift.

Everything the program under test receives is a constraint set produced
here; the program never sees a seed.  ``prepare`` plays the client side of
the paper's loop (client database -> annotated query plans -> cardinality
constraints) and hands the constraint set over in wire form, round-trip
checked by ``constraint_set_fingerprint``.

Which knobs the ``--seed`` turns, and why the others are constants, is in
``README.md`` ("What the seed does"): the LP a workload formulates is a step
function of the query templates *and* of the observed cardinalities, so the
client database and the query templates are fixed and the seed draws the
drift chain, the request-body permutations and the shard assignment.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional

from repro import (
    ConstraintSet,
    complex_workload,
    extract_constraints,
    generate_database,
    simple_workload,
    tpcds_schema,
)
from repro.schema import Schema
from repro.server.wire import constraint_set_from_wire, constraint_set_to_wire
from repro.service import constraint_set_fingerprint

#: Seed of the one client database every run extracts its constraints from.
DATA_SEED = 1


@dataclass(frozen=True)
class Sizing:
    """Input sizes of one benchmark scale (full, or the tier-1 smoke)."""

    scale_factor: float
    dimension_scale: float
    wlc_queries: int
    wls_queries: int

    def schema(self) -> Schema:
        return tpcds_schema(scale_factor=self.scale_factor,
                            dimension_scale=self.dimension_scale)


#: WLc = complex_workload(131 queries): 350 CCs, ~24.5k LP variables, 15
#: components, the larger ones past the MILP size limit.  WLs =
#: simple_workload(110 queries): 188 CCs, 315 variables, 43 components.
#: The data scale only sets the regenerated row count (~239k rows); the LP
#: is independent of it.
FULL = Sizing(scale_factor=0.0002, dimension_scale=0.01,
              wlc_queries=131, wls_queries=110)
#: Tiny inputs for ``--smoke``: every code path, no meaningful timing.
SMOKE = Sizing(scale_factor=0.00002, dimension_scale=0.002,
               wlc_queries=30, wls_queries=20)

#: How often ``prepare`` repeats the extraction to report a median.
PREPARE_REPEATS = 3


@dataclass
class Inputs:
    """What one workload process works on."""

    schema: Schema
    constraints: ConstraintSet
    #: Median wall time of one client-side extraction, charged to set-up.
    prepare_s: float


def _extract(sizing: Sizing, which: str) -> ConstraintSet:
    schema = sizing.schema()
    database = generate_database(schema, seed=DATA_SEED)
    if which == "wlc":
        workload = complex_workload(schema, sizing.wlc_queries)
    else:
        workload = simple_workload(schema, sizing.wls_queries)
    return extract_constraints(database, workload, name=which).constraints


def prepare(sizing: Sizing, which: str,
            prepare_dir: Optional[Path] = None) -> Inputs:
    """The constraint set ``which`` (``"wlc"`` or ``"wls"``), via wire form.

    With ``prepare_dir`` the wire form is written once and every later
    process loads it; the recorded extraction time travels with it, so
    ``setup_s`` charges the same amount whether or not this process paid it.
    """
    cache = prepare_dir / f"{which}.json" if prepare_dir is not None else None
    if cache is not None and cache.exists():
        record = json.loads(cache.read_text())
    else:
        times: List[float] = []
        for _ in range(PREPARE_REPEATS):
            started = time.perf_counter()
            extracted = _extract(sizing, which)
            times.append(time.perf_counter() - started)
        record = {
            "wire": constraint_set_to_wire(extracted),
            "fingerprint": constraint_set_fingerprint(extracted),
            "prepare_s": statistics.median(times),
        }
        if cache is not None:
            cache.parent.mkdir(parents=True, exist_ok=True)
            scratch = cache.with_suffix(".tmp")
            scratch.write_text(json.dumps(record))
            scratch.replace(cache)
    constraints = constraint_set_from_wire(record["wire"])
    if constraint_set_fingerprint(constraints) != record["fingerprint"]:
        raise RuntimeError(f"{which}: wire round trip changed the fingerprint")
    return Inputs(schema=sizing.schema(), constraints=constraints,
                  prepare_s=float(record["prepare_s"]))


def drift(constraints: ConstraintSet, rng: random.Random) -> ConstraintSet:
    """One-constraint drift: a seeded query's observed cardinality grows."""
    drifted = list(constraints.constraints)
    index = rng.choice([i for i, cc in enumerate(drifted) if cc.query_id])
    drifted[index] = replace(
        drifted[index],
        cardinality=drifted[index].cardinality + rng.randint(1, 3))
    return ConstraintSet(drifted, name=constraints.name)


def permuted(constraints: ConstraintSet, rng: random.Random) -> ConstraintSet:
    """The same constraints in a seeded order (same fingerprint by design)."""
    shuffled = list(constraints.constraints)
    rng.shuffle(shuffled)
    return ConstraintSet(shuffled, name=constraints.name)
