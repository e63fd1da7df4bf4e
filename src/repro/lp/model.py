"""LP model containers.

The LPs produced by both Hydra and DataSynth have a very specific shape: all
variables are non-negative tuple counts and every constraint is a linear
equality.  Cardinality constraints are plain coefficient-one sums; the
consistency constraints between sub-views are differences of two sums
(``sum(left) - sum(right) = 0``).  There is no objective — any feasible point
will do.

An :class:`LPModel` keeps its rows as compressed-sparse-row arrays, so a
view LP costs a handful of arrays rather than an object per row or per
variable; the formulator appends rows in bulk (:meth:`LPModel.add_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.errors import LPError
from repro.partition.signature import SignaturePartition

if TYPE_CHECKING:  # decompose imports this module
    from repro.lp.decompose import Decomposition


@dataclass
class LPModel:
    """A full LP: non-negative variables and linear equality rows.

    Row ``i`` reads ``sum(data[k] * x[indices[k]]) = rhs[i]`` over
    ``k in range(indptr[i], indptr[i + 1])``.
    """

    name: str
    num_variables: int = 0
    indptr: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))
    indices: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    data: np.ndarray = field(default_factory=lambda: np.zeros(0))
    rhs: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: Cached ``(A, b)`` system, invalidated whenever rows are added;
    #: the solver, the decomposer and the violation check all need it.
    _matrix_cache: Optional[Tuple["sparse.csr_matrix", np.ndarray]] = field(
        default=None, repr=False, compare=False
    )
    #: Cached :func:`~repro.lp.decompose.decompose_model` result, invalidated
    #: like the matrix; the solver and the build's component keys share it.
    _decomposition_cache: Optional["Decomposition"] = field(
        default=None, repr=False, compare=False
    )

    def add_rows(self, lengths: Sequence[int], indices: Sequence[int],
                 rhs: Sequence[float], data: Optional[Sequence[float]] = None) -> None:
        """Append ``len(lengths)`` rows: row ``i`` takes the next
        ``lengths[i]`` entries of ``indices`` (variable indices) and ``data``
        (coefficients, all ones when omitted) and has right-hand side
        ``rhs[i]``."""
        lengths = np.asarray(lengths, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        rhs = np.asarray(rhs, dtype=np.float64)
        data = np.ones(len(indices)) if data is None else np.asarray(data, dtype=np.float64)
        if len(data) != len(indices):
            raise LPError("coefficients must match variables")
        if len(rhs) != len(lengths) or int(lengths.sum()) != len(indices):
            raise LPError("row lengths must match variables and right-hand sides")
        out_of_range = (indices < 0) | (indices >= self.num_variables)
        if out_of_range.any():
            raise LPError(f"variable index {indices[out_of_range][0]} out of range")
        if (rhs < 0).any():
            raise LPError("constraint right-hand side must be non-negative")
        self._matrix_cache = None
        self._decomposition_cache = None
        self.indptr = np.concatenate([self.indptr, self.indptr[-1] + np.cumsum(lengths)])
        self.indices = np.concatenate([self.indices, indices])
        self.data = np.concatenate([self.data, data])
        self.rhs = np.concatenate([self.rhs, rhs])

    def add_constraint(self, variables: Sequence[int], rhs: int,
                       coefficients: Optional[Sequence[float]] = None) -> None:
        """Append one equality row over the given variable indices."""
        self.add_rows([len(variables)], variables, [rhs], coefficients)

    @property
    def num_constraints(self) -> int:
        """Number of equality constraints."""
        return len(self.rhs)

    def matrix(self) -> Tuple["sparse.csr_matrix", np.ndarray]:
        """Return the sparse equality matrix ``A`` and right-hand side ``b``.

        ``A`` is canonical: column indices sorted within each row, repeated
        entries summed.  The system is cached until rows are next added;
        callers must not mutate the returned arrays.
        """
        if self._matrix_cache is None:
            a = sparse.csr_matrix((self.data, self.indices, self.indptr), copy=True,
                                  shape=(self.num_constraints, self.num_variables))
            a.sum_duplicates()
            self._matrix_cache = (a, self.rhs)
        return self._matrix_cache

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LPModel({self.name!r}, {self.num_variables} vars,"
                f" {self.num_constraints} constraints)")


@dataclass
class SubViewBlock:
    """One sub-view inside a view LP: its partition, whose variables are the
    model's variables ``start`` to ``stop - 1``."""

    subview_index: int
    attributes: Tuple[str, ...]
    start: int
    partition: SignaturePartition

    @property
    def stop(self) -> int:
        """One past the block's last global variable index."""
        return self.start + len(self.partition)


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
