"""LP formulation (region and grid strategies), decomposition and solvers.

A view LP is array-backed from partition to solve: sub-view partitions are
:class:`~repro.partition.signature.SignaturePartition` arrays, an
:class:`LPModel` holds its rows as CSR arrays, and decomposition slices
those arrays into component models."""

from repro.lp.decompose import (
    Decomposition,
    LPComponent,
    component_key,
    decompose_model,
    stitch_solutions,
)
from repro.lp.formulate import (
    DEFAULT_MAX_GRID_VARIABLES,
    STRATEGY_GRID,
    STRATEGY_REGION,
    count_lp_variables,
    formulate_view_lp,
)
from repro.lp.model import LPModel, LPSolution, SubViewBlock, ViewLP
from repro.lp.solver import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_WORKERS,
    MILP_TIME_LIMIT,
    MILP_VARIABLE_LIMIT,
    LPSolver,
    ParallelLPSolver,
    SolverBatch,
    SolverStats,
)

__all__ = [
    "LPModel",
    "LPSolution",
    "SubViewBlock",
    "ViewLP",
    "LPSolver",
    "ParallelLPSolver",
    "SolverBatch",
    "SolverStats",
    "Decomposition",
    "LPComponent",
    "component_key",
    "decompose_model",
    "stitch_solutions",
    "MILP_VARIABLE_LIMIT",
    "MILP_TIME_LIMIT",
    "DEFAULT_WORKERS",
    "DEFAULT_CACHE_SIZE",
    "formulate_view_lp",
    "count_lp_variables",
    "STRATEGY_REGION",
    "STRATEGY_GRID",
    "DEFAULT_MAX_GRID_VARIABLES",
]
