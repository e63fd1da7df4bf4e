"""LP model containers.

The LPs produced by both Hydra and DataSynth have a very specific shape: all
variables are non-negative tuple counts and every constraint is a linear
equality.  Cardinality constraints are plain coefficient-one sums; the
consistency constraints between sub-views are differences of two sums
(``sum(left) - sum(right) = 0``).  There is no objective — any feasible point
will do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.errors import LPError
from repro.partition.consistency import RefinedVariable

if TYPE_CHECKING:  # decompose imports this module
    from repro.lp.decompose import Decomposition


@dataclass
class LPConstraint:
    """An equality constraint ``sum(coefficients[i] * x[variables[i]]) = rhs``."""

    variables: Tuple[int, ...]
    rhs: int
    coefficients: Optional[Tuple[float, ...]] = None
    kind: str = "cardinality"
    tag: Optional[str] = None

    def __post_init__(self) -> None:
        if self.coefficients is not None and len(self.coefficients) != len(self.variables):
            raise LPError("coefficients must match variables")

    def coefficient_list(self) -> Tuple[float, ...]:
        """Coefficients, defaulting to all ones."""
        if self.coefficients is None:
            return tuple(1.0 for _ in self.variables)
        return self.coefficients


@dataclass
class LPModel:
    """A full LP: non-negative variables and linear equality constraints."""

    name: str
    num_variables: int = 0
    constraints: List[LPConstraint] = field(default_factory=list)
    #: Cached ``(A, b)`` system, invalidated whenever a constraint is added;
    #: the solver, the decomposer and the violation check all need it.
    _matrix_cache: Optional[Tuple["sparse.csr_matrix", np.ndarray]] = field(
        default=None, repr=False, compare=False
    )
    #: Cached :func:`~repro.lp.decompose.decompose_model` result, invalidated
    #: like the matrix; the solver and the build's component keys share it.
    _decomposition_cache: Optional["Decomposition"] = field(
        default=None, repr=False, compare=False
    )

    def add_constraint(self, variables: Sequence[int], rhs: int,
                       coefficients: Optional[Sequence[float]] = None,
                       kind: str = "cardinality", tag: Optional[str] = None) -> None:
        """Append an equality constraint over the given variable indices."""
        variables = tuple(variables)
        if variables and (min(variables) < 0 or max(variables) >= self.num_variables):
            bad = next(i for i in variables if not 0 <= i < self.num_variables)
            raise LPError(f"variable index {bad} out of range")
        if rhs < 0:
            raise LPError("constraint right-hand side must be non-negative")
        self._matrix_cache = None
        self._decomposition_cache = None
        self.constraints.append(
            LPConstraint(
                variables=variables,
                rhs=int(rhs),
                coefficients=tuple(coefficients) if coefficients is not None else None,
                kind=kind,
                tag=tag,
            )
        )

    @property
    def num_constraints(self) -> int:
        """Number of equality constraints."""
        return len(self.constraints)

    def cardinality_constraints(self) -> List[LPConstraint]:
        """The constraints that encode CCs (as opposed to consistency)."""
        return [c for c in self.constraints if c.kind == "cardinality"]

    def matrix(self) -> Tuple["sparse.csr_matrix", np.ndarray]:
        """Return the sparse equality matrix ``A`` and right-hand side ``b``.

        The system is cached until the next :meth:`add_constraint` call;
        callers must not mutate the returned arrays.
        """
        if self._matrix_cache is not None:
            return self._matrix_cache
        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        for i, constraint in enumerate(self.constraints):
            coefficients = constraint.coefficient_list()
            rows.extend([i] * len(constraint.variables))
            cols.extend(constraint.variables)
            data.extend(coefficients)
        a = sparse.csr_matrix(
            (np.asarray(data, dtype=np.float64), (rows, cols)),
            shape=(len(self.constraints), self.num_variables),
        )
        b = np.array([c.rhs for c in self.constraints], dtype=np.float64)
        self._matrix_cache = (a, b)
        return a, b

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LPModel({self.name!r}, {self.num_variables} vars,"
                f" {self.num_constraints} constraints)")


@dataclass
class SubViewBlock:
    """Bookkeeping for one sub-view inside a view LP: which global variable
    indices belong to it and the refined variables they correspond to."""

    subview_index: int
    attributes: Tuple[str, ...]
    variable_indices: Tuple[int, ...]
    variables: List[RefinedVariable]


@dataclass
class ViewLP:
    """The complete LP of one view, plus the structure needed to map the
    solution back to sub-view solutions."""

    relation: str
    model: LPModel
    blocks: List[SubViewBlock] = field(default_factory=list)
    strategy: str = "region"
    #: Shared attributes along which partitions were refined; the summary
    #: generator aligns sub-view solutions on exactly these attributes.
    aligned_attributes: Tuple[str, ...] = ()

    @property
    def num_variables(self) -> int:
        """Total number of LP variables across all sub-views."""
        return self.model.num_variables

    def block_for(self, subview_index: int) -> SubViewBlock:
        """Return the block of the given sub-view."""
        for block in self.blocks:
            if block.subview_index == subview_index:
                return block
        raise LPError(f"no block for sub-view {subview_index}")


@dataclass
class LPSolution:
    """A solved LP: integer variable values plus solver diagnostics."""

    values: np.ndarray
    feasible: bool
    method: str
    max_violation: float = 0.0
    solve_seconds: float = 0.0

    def value(self, index: int) -> int:
        """Return the value of one variable."""
        return int(self.values[index])
