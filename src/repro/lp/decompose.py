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
  independent components via union-find over the constraint rows;
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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import LPError
from repro.lp.model import LPConstraint, LPModel, LPSolution


@dataclass
class LPComponent:
    """One independent block of an LP: a self-contained local model plus the
    mapping from its local variable indices back to the global ones."""

    model: LPModel
    #: ``variable_indices[local]`` is the global index of local variable
    #: ``local``; sorted ascending so the mapping is canonical.
    variable_indices: Tuple[int, ...]
    #: Indices (into the parent model's constraint list) of the rows that
    #: ended up in this component, in their original order.
    constraint_indices: Tuple[int, ...]
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
        Constraints that reference no variable at all (``0 = rhs``); a
        non-zero right-hand side makes the whole model infeasible by that
        amount.
    """

    num_variables: int
    components: List[LPComponent] = field(default_factory=list)
    free_variables: Tuple[int, ...] = ()
    orphan_constraints: List[LPConstraint] = field(default_factory=list)

    @property
    def orphan_violation(self) -> float:
        """Largest violation contributed by variable-free constraints."""
        if not self.orphan_constraints:
            return 0.0
        return float(max(abs(c.rhs) for c in self.orphan_constraints))


def decompose_model(model: LPModel) -> Decomposition:
    """Split ``model`` into independent connected components.

    Two variables belong to the same component iff they are connected through
    a chain of shared constraint rows (union-find over the rows).  Returns
    the components largest-first plus the leftover free variables and
    variable-free constraints.  The result is cached on the model until its
    next :meth:`~repro.lp.model.LPModel.add_constraint`; callers must not
    mutate it.
    """
    if model._decomposition_cache is not None:
        return model._decomposition_cache
    n = model.num_variables
    parent = list(range(n))

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    orphans: List[LPConstraint] = []
    for constraint in model.constraints:
        if not constraint.variables:
            orphans.append(constraint)
            continue
        first = constraint.variables[0]
        for other in constraint.variables[1:]:
            union(first, other)

    constrained: Dict[int, List[int]] = {}
    for row, constraint in enumerate(model.constraints):
        if not constraint.variables:
            continue
        constrained.setdefault(find(constraint.variables[0]), []).append(row)

    members: Dict[int, List[int]] = {}
    free: List[int] = []
    for variable in range(n):
        root = find(variable)
        if root in constrained:
            members.setdefault(root, []).append(variable)
        else:
            free.append(variable)

    components: List[LPComponent] = []
    for root, rows in constrained.items():
        variables = sorted(members[root])
        local_of = {g: l for l, g in enumerate(variables)}
        local = LPModel(name=f"{model.name}#cc{len(components)}",
                        num_variables=len(variables))
        for row in rows:
            constraint = model.constraints[row]
            local.add_constraint(
                [local_of[v] for v in constraint.variables],
                constraint.rhs,
                coefficients=constraint.coefficients,
                kind=constraint.kind,
                tag=constraint.tag,
            )
        components.append(LPComponent(
            model=local,
            variable_indices=tuple(variables),
            constraint_indices=tuple(rows),
        ))

    components.sort(key=lambda c: c.num_variables, reverse=True)
    model._decomposition_cache = Decomposition(
        num_variables=n,
        components=components,
        free_variables=tuple(free),
        orphan_constraints=orphans,
    )
    return model._decomposition_cache


def component_key(model: LPModel) -> str:
    """Canonical content hash of a model's ``(A, b)`` equality system.

    Two components with identical sparse matrices and right-hand sides get
    the same key regardless of their names or constraint tags, so repeated
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
        values[np.asarray(component.variable_indices, dtype=np.intp)] = solution.values

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
