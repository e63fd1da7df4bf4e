"""Client-side helpers (the left half of Figure 2).

At the client site, Hydra executes the query workload against the original
database to obtain annotated query plans and converts them into cardinality
constraints with the parser.  These helpers bundle those steps so that the
vendor-side pipeline can be exercised end to end in tests and examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.constraints.parser import constraints_from_plans
from repro.constraints.workload import ConstraintSet
from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.engine.plan import AnnotatedQueryPlan
from repro.workload.query import Workload


@dataclass
class ClientPackage:
    """Everything the client ships to the vendor: the (anonymised) schema is
    implicit in the shared :class:`~repro.schema.Schema` object, the AQPs are
    retained for reporting, and the CCs drive regeneration.

    ``peak_batch_rows`` is the executor's memory-accounting telemetry: the
    largest batch (pipelined) or intermediate table (materialize) that AQP
    collection pushed through a plan."""

    plans: List[AnnotatedQueryPlan]
    constraints: ConstraintSet
    row_counts: Dict[str, int]
    peak_batch_rows: int = 0


def extract_constraints(database: Database, workload: Workload,
                        include_sizes: bool = True,
                        name: str = "client-ccs",
                        executor_mode: str = "pipelined") -> ClientPackage:
    """Execute the workload on the client database and derive its CCs.

    AQP collection runs through the pipelined executor by default: plans are
    drained into a cardinality-accumulating sink, so stream-attached (lazy)
    relations are never materialised and peak memory stays at one batch.
    """
    workload.validate(database.schema)
    executor = Executor(database, mode=executor_mode)
    plans = executor.execute_workload(workload)
    # Collect row counts over every attached relation the workload touches —
    # including stream-attached (lazy) relations, which ``Database.relations``
    # covers and ``row_count`` counts without materialising them.
    touched = set(workload.relations())
    row_counts = {rel: database.row_count(rel)
                  for rel in database.relations if rel in touched}
    constraints = constraints_from_plans(
        plans, database.schema, row_counts=row_counts,
        include_sizes=include_sizes, name=name,
    )
    return ClientPackage(plans=plans, constraints=constraints,
                         row_counts=row_counts,
                         peak_batch_rows=executor.stats.peak_batch_rows)
