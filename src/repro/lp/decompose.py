"""Constraint-graph decomposition of regeneration LPs.

The LPs produced by region partitioning are naturally block-structured: a
variable only interacts with the variables it shares a constraint row with,
so the constraint graph (variables as nodes, one clique per constraint) often
splits into several independent connected components — e.g. the per-sub-view
blocks of CCs whose predicates touch disjoint parts of the domain.  Solving
the components separately is both embarrassingly parallel and asymptotically
cheaper than solving the monolithic system, because LP/MILP solve cost grows
superlinearly with size.

This module provides:

* :func:`decompose_model` — split an :class:`~repro.lp.model.LPModel` into
  independent components: connected components of the row–variable graph
  (:func:`scipy.sparse.csgraph.connected_components`), each component's
  rows sliced out of the model's CSR arrays;
* :func:`component_key` — a canonical content hash of a component's
  ``(A, b)`` system, used as the key of the solution cache (the "millions of
  users" serving scenario repeatedly solves identical components);
* :func:`stitch_solutions` — recompose per-component solutions into one
  solution of the original model.

Any combination of feasible component solutions is feasible for the full
model, because components share no constraint row by construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from repro.errors import LPError
from repro.lp.model import LPModel, LPSolution


@dataclass
class LPComponent:
    """One independent block of an LP: a self-contained local model plus the
    mapping from its local variable indices back to the global ones."""

    model: LPModel
    #: ``variable_indices[local]`` is the global index of local variable
    #: ``local``; sorted ascending so the mapping is canonical.
    variable_indices: np.ndarray
    #: Indices (into the parent model's rows) of the rows that ended up in
    #: this component, in their original order.
    constraint_indices: np.ndarray
    _key: Optional[str] = field(default=None, repr=False, compare=False)

    @property
    def num_variables(self) -> int:
        """Number of variables local to the component."""
        return self.model.num_variables

    @property
    def key(self) -> str:
        """Canonical content hash of the component's ``(A, b)`` system."""
        if self._key is None:
            self._key = component_key(self.model)
        return self._key


@dataclass
class Decomposition:
    """The result of decomposing an LP model.

    Attributes
    ----------
    num_variables:
        Variable count of the original model (stitching needs it).
    components:
        Independent sub-LPs, largest first (better load balancing when the
        components are farmed out to a worker pool).
    free_variables:
        Global indices of variables that appear in no constraint; they can
        take any non-negative value and are fixed to zero when stitching.
    orphan_constraints:
        Rows that reference no variable at all (``0 = rhs``).
    orphan_violation:
        The largest ``|rhs|`` among them: a non-zero value makes the whole
        model infeasible by that amount.
    """

    num_variables: int
    components: List[LPComponent] = field(default_factory=list)
    free_variables: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    orphan_constraints: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64))
    orphan_violation: float = 0.0


def decompose_model(model: LPModel) -> Decomposition:
    """Split ``model`` into independent connected components.

    Two variables belong to the same component iff they are connected through
    a chain of shared constraint rows.  Components come largest first, ties
    in the order of their first row; a component's variables are ascending
    and its rows keep their order.  Also returns the leftover free variables
    and variable-free rows.  The result is cached on the model until rows
    are next added; callers must not mutate it.
    """
    if model._decomposition_cache is not None:
        return model._decomposition_cache
    # The model's own rows, as appended: each component's local model
    # canonicalises its slice when it builds its matrix.
    m, n = model.num_constraints, model.num_variables
    indptr, indices = model.indptr, model.indices
    lengths = indptr[1:] - indptr[:-1]
    column_counts = np.bincount(indices, minlength=n)
    # The row-variable graph, both ways round (nodes 0..m-1 are the rows,
    # m..m+n-1 the variables): on a symmetric graph the strong components
    # are the connected ones, and scipy finds them without a transpose.
    # Its index arrays are int32, as scipy would make them: a view LP's
    # variable budget keeps it far below 2**31 nodes and entries.
    entry_rows = np.repeat(np.arange(m), lengths)
    graph = sparse.csr_matrix(
        (np.ones(2 * len(indices)),
         np.concatenate([indices + m, entry_rows[np.argsort(indices, kind="stable")]],
                        dtype=np.int32),
         np.concatenate([indptr, indptr[-1] + np.cumsum(column_counts)], dtype=np.int32)),
        shape=(m + n, m + n))
    _, labels = connected_components(graph, directed=True, connection="strong")

    # A component is the label of a non-empty row; components go largest
    # first, ties by first row.
    rows = (lengths > 0).nonzero()[0]
    variables = (column_counts > 0).nonzero()[0]
    first_row = np.full(m + n, m)
    np.minimum.at(first_row, labels[rows], rows)
    roots = (first_row < m).nonzero()[0]
    sizes = np.bincount(labels[m + variables], minlength=m + n)[roots]
    component_of = np.zeros(m + n, dtype=np.intp)
    component_of[roots[np.lexsort((first_row[roots], -sizes))]] = np.arange(len(roots))

    # Group variables and rows by component, stably (so each group stays in
    # index order); number each component's variables locally and gather
    # the entries of its rows.
    def grouped(items: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        owners = component_of[labels[items]]
        by_component = np.argsort(owners, kind="stable")
        owners = owners[by_component]
        return items[by_component], owners.searchsorted(np.arange(len(roots) + 1)), owners

    grouped_variables, variable_bounds, variable_components = grouped(variables + m)
    grouped_variables -= m
    local = np.zeros(n, dtype=np.int64)
    local[grouped_variables] = np.arange(len(variables)) - variable_bounds[variable_components]
    grouped_rows, row_bounds, _ = grouped(rows)
    grouped_lengths = lengths[grouped_rows]
    entry_bounds = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(grouped_lengths, out=entry_bounds[1:])
    entries = (np.repeat(indptr[grouped_rows] - entry_bounds[:-1], grouped_lengths)
               + np.arange(entry_bounds[-1]))
    entry_indices = local[indices[entries]]
    entry_data = model.data[entries]

    components: List[LPComponent] = []
    for k in range(len(roots)):
        first, stop_row = row_bounds[k], row_bounds[k + 1]
        start, stop = entry_bounds[first], entry_bounds[stop_row]
        component_rows = grouped_rows[first:stop_row]
        component_variables = grouped_variables[variable_bounds[k]:variable_bounds[k + 1]]
        components.append(LPComponent(
            model=LPModel(
                name=f"{model.name}#cc{k}",
                num_variables=len(component_variables),
                indptr=entry_bounds[first:stop_row + 1] - start,
                indices=entry_indices[start:stop],
                data=entry_data[start:stop],
                rhs=model.rhs[component_rows],
            ),
            variable_indices=component_variables,
            constraint_indices=component_rows,
        ))

    orphans = (lengths == 0).nonzero()[0]
    model._decomposition_cache = Decomposition(
        num_variables=n,
        components=components,
        free_variables=(column_counts == 0).nonzero()[0],
        orphan_constraints=orphans,
        orphan_violation=float(np.abs(model.rhs[orphans]).max()) if len(orphans) else 0.0,
    )
    return model._decomposition_cache


def component_key(model: LPModel) -> str:
    """Canonical content hash of a model's ``(A, b)`` equality system.

    Two components with identical sparse matrices and right-hand sides get
    the same key regardless of their names, so repeated
    regeneration requests for the same summary reuse cached solutions.
    """
    a, b = model.matrix()
    digest = hashlib.sha256()
    digest.update(np.int64(a.shape[0]).tobytes())
    digest.update(np.int64(a.shape[1]).tobytes())
    digest.update(np.asarray(a.indptr, dtype=np.int64).tobytes())
    digest.update(np.asarray(a.indices, dtype=np.int64).tobytes())
    digest.update(np.asarray(a.data, dtype=np.float64).tobytes())
    digest.update(np.asarray(b, dtype=np.float64).tobytes())
    return digest.hexdigest()


def stitch_solutions(decomposition: Decomposition,
                     solutions: Sequence[LPSolution]) -> LPSolution:
    """Recompose per-component solutions into a solution of the full model.

    ``solutions`` must align with ``decomposition.components``.  Free
    variables are fixed to zero (any non-negative value is feasible for
    them).  Diagnostics aggregate conservatively: the stitched solution is
    feasible only if every component is and no orphan constraint is violated;
    the reported violation is the worst across components and orphans.
    """
    if len(solutions) != len(decomposition.components):
        raise LPError(
            f"expected {len(decomposition.components)} component solutions,"
            f" got {len(solutions)}"
        )
    values = np.zeros(decomposition.num_variables, dtype=np.int64)
    for component, solution in zip(decomposition.components, solutions):
        values[component.variable_indices] = solution.values

    orphan_violation = decomposition.orphan_violation
    feasible = all(s.feasible for s in solutions) and orphan_violation == 0.0
    max_violation = max(
        [orphan_violation] + [s.max_violation for s in solutions], default=0.0
    )
    methods = sorted({s.method for s in solutions})
    if not methods:
        method = "empty"
    elif len(methods) == 1 and len(decomposition.components) <= 1:
        method = methods[0]
    else:
        method = "decomposed[" + "+".join(methods) + "]"
    return LPSolution(
        values=values,
        feasible=feasible,
        method=method,
        max_violation=float(max_violation),
        solve_seconds=sum(s.solve_seconds for s in solutions),
    )
