"""LP / integer-feasibility solvers.

The paper uses the Z3 SMT solver purely as a feasibility engine: given the
equality constraints over non-negative tuple counts, any feasible assignment
will do.  This module substitutes Z3 with three rungs, tried in order (each
records itself in ``LPSolution.method``):

* ``"unique"`` — an exact rung for tiny systems (at most
  :data:`UNIQUE_VARIABLE_LIMIT` variables, at least as many rows as columns)
  of full column rank.  Such a system has at most one solution, so when
  ``rint`` of its least-squares point is non-negative and satisfies
  ``A x = b`` exactly, it is the only feasible point — the one the MILP
  would return — found with one dense ``lstsq`` instead of a HiGHS call;
* ``"milp"`` — an exact integer feasibility pass built on
  ``scipy.optimize.milp`` (HiGHS), which returns integral counts whenever the
  system is integrally feasible — matching the paper's claim that Hydra
  satisfies CCs exactly up to the referential-integrity additions; and
* ``"linprog+l1"`` — a continuous fallback using ``scipy.optimize.linprog``
  with L1 slack minimisation, used when the MILP is unavailable, too large or
  infeasible.  The slack solution is then rounded; any residual violation is
  reported in the solution diagnostics rather than silently dropped.

The first two rungs run only with ``prefer_integer``.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import Counter, OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np
from scipy import optimize, sparse

from repro.errors import InfeasibleLPError, LPError
from repro.lp.decompose import (
    Decomposition,
    LPComponent,
    decompose_model,
    stitch_solutions,
)
from repro.lp.model import LPModel, LPSolution
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span as trace_span

logger = get_logger("lp.solver")

#: Above this many variables (per component) the MILP pass is skipped and
#: the continuous solver is used directly (keeps solve times predictable on
#: huge grids).
MILP_VARIABLE_LIMIT = 4_000

#: Components of at most this many variables (and at least as many rows)
#: try the exact unique-solution rung before the MILP.  Not part of the cache
#: namespace or the fingerprint profile: the rung only ever returns the one
#: feasible point, which is what the MILP returns too.
UNIQUE_VARIABLE_LIMIT = 64

#: Wall-clock budget (seconds) of the exact MILP pass; when HiGHS cannot find
#: an integral solution within it, the continuous + rounding path takes over.
MILP_TIME_LIMIT = 10.0

#: Default worker count of :class:`ParallelLPSolver`.
DEFAULT_WORKERS = 2

#: Default capacity of the per-solver component solution cache.
DEFAULT_CACHE_SIZE = 256

#: Residual violation above which a strict parallel solver declares the
#: constraint set infeasible.
STRICT_VIOLATION_TOLERANCE = 1e-6


class LPSolver:
    """Feasibility solver for the regeneration LPs.

    Parameters
    ----------
    prefer_integer:
        Try the exact rungs first (default) on models of at most
        :data:`MILP_VARIABLE_LIMIT` variables: the unique-solution rung on
        tiny full-rank systems, then the MILP feasibility pass within
        :data:`MILP_TIME_LIMIT` seconds.  When disabled the continuous path
        is used directly, mimicking systems (such as DataSynth) that work
        with fractional solutions and rely on sampling.

    The solver holds no mutable state, so one instance may serve concurrent
    solves.
    """

    def __init__(self, prefer_integer: bool = True) -> None:
        self.prefer_integer = prefer_integer

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def solve(self, model: LPModel) -> LPSolution:
        """Solve the model, returning integer variable values.

        Raises
        ------
        InfeasibleLPError
            Only when even the slack-minimising fallback cannot be solved
            (which indicates a malformed model rather than conflicting CCs).
        """
        if model.num_variables == 0:
            return LPSolution(
                values=np.zeros(0, dtype=np.int64), feasible=True, method="empty"
            )
        started = time.perf_counter()
        if self.prefer_integer and model.num_variables <= MILP_VARIABLE_LIMIT:
            solution = self._solve_unique(model)
            if solution is None:
                solution = self._solve_milp(model)
            if solution is not None:
                solution.solve_seconds = time.perf_counter() - started
                return solution
        solution = self._solve_continuous(model)
        solution.solve_seconds = time.perf_counter() - started
        return solution

    # ------------------------------------------------------------------ #
    # exact rungs: unique solution, then MILP feasibility
    # ------------------------------------------------------------------ #
    @staticmethod
    def _solve_unique(model: LPModel) -> Optional[LPSolution]:
        """The system's only solution, when it is tiny, of full column rank
        and its least-squares point rounds to a non-negative exact solution;
        ``None`` (fall through to the MILP) otherwise."""
        n = model.num_variables
        if n > UNIQUE_VARIABLE_LIMIT or model.num_constraints < n:
            return None
        a, b = model.matrix()
        dense = a.toarray()
        # Singular values under 1e-9 of the largest count as zero: far above
        # float64 round-off on these small 0/±1 matrices, so a rank-deficient
        # system (many solutions) never passes, while a full-rank one judged
        # deficient only costs the MILP call.
        x, _, rank, _ = np.linalg.lstsq(dense, b, rcond=1e-9)
        if rank < n:
            return None
        values = np.rint(x)
        # Exact float64 equality against the model's own b: the products of
        # integral counts and 0/±1 coefficients are exact, and a fractional
        # b can never be met, so it is rejected rather than truncated.
        if (values < 0).any() or not np.array_equal(dense @ values, b):
            return None
        return LPSolution(values=values.astype(np.int64), feasible=True,
                          method="unique")

    def _solve_milp(self, model: LPModel) -> Optional[LPSolution]:
        a, b = model.matrix()
        n = model.num_variables
        try:
            result = optimize.milp(
                c=np.zeros(n),
                constraints=optimize.LinearConstraint(a, b, b),
                integrality=np.ones(n),
                bounds=optimize.Bounds(lb=0, ub=np.inf),
                options={"time_limit": MILP_TIME_LIMIT},
            )
        except (ValueError, AttributeError):
            return None
        if not result.success or result.x is None:
            return None
        values = np.rint(result.x).astype(np.int64)
        values[values < 0] = 0
        violation = self._max_violation(a, b, values)
        return LPSolution(values=values, feasible=True, method="milp",
                          max_violation=violation)

    # ------------------------------------------------------------------ #
    # continuous fallback with L1 slack minimisation
    # ------------------------------------------------------------------ #
    def _solve_continuous(self, model: LPModel) -> LPSolution:
        a, b = model.matrix()
        n = model.num_variables
        m = model.num_constraints

        # Variables: x (n), s_plus (m), s_minus (m) with A x + s+ - s- = b and
        # objective sum(s+ + s-): a feasible system yields zero slack.
        identity = sparse.identity(m, format="csr")
        a_aug = sparse.hstack([a, identity, -identity], format="csr")
        c = np.concatenate([np.zeros(n), np.ones(2 * m)])

        # Escalation ladder for numerically extreme instances (right-hand
        # sides around 1e15 in the exabyte experiment make HiGHS bail out
        # with an unknown model status and no primal point): plain solve,
        # then presolve off, then the rhs normalised to unit scale — the
        # system is homogeneous, so solutions rescale exactly.
        rhs_scale = float(b.max()) if b.size and b.max() > 1.0 else 1.0
        attempts = [
            ({}, 1.0),
            ({"options": {"presolve": False}}, 1.0),
            ({}, rhs_scale),
        ]
        result = None
        try:
            for extra, scale in attempts:
                result = optimize.linprog(
                    c, A_eq=a_aug, b_eq=b / scale, bounds=(0, None),
                    method="highs", **extra,
                )
                if result.x is not None:
                    result_scale = scale
                    break
        except ValueError as error:
            raise InfeasibleLPError(
                f"LP {model.name!r} could not be solved: {error}"
            ) from error
        if result is None or result.x is None:
            raise InfeasibleLPError(
                f"LP {model.name!r} could not be solved: {result.message}"
            )
        # ``success`` can be False for numerically difficult instances even
        # though HiGHS returns a primal-feasible point; use the point and
        # report the residual violation honestly instead of giving up.
        raw = result.x[:n] * result_scale
        values = self._round(raw)
        violation = self._max_violation(a, b, values)
        feasible = bool(result.fun is not None and result.fun * result_scale < 0.5)
        return LPSolution(values=values, feasible=feasible, method="linprog+l1",
                          max_violation=violation)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _round(values: np.ndarray) -> np.ndarray:
        rounded = np.rint(values)
        rounded[rounded < 0] = 0
        return rounded.astype(np.int64)

    @staticmethod
    def _max_violation(a: "sparse.csr_matrix", b: np.ndarray, values: np.ndarray) -> float:
        if b.size == 0:
            return 0.0
        residual = a.dot(values.astype(np.float64)) - b
        return float(np.abs(residual).max())


class SolverStats:
    """Counters and timings accumulated by a :class:`ParallelLPSolver`.

    The counters are registry-backed views (one :class:`MetricsRegistry` per
    solver by default): ``models_solved`` / ``components_solved`` /
    ``cache_hits`` / ``cache_misses`` read the underlying
    ``repro_lp_*_total`` counters, so legacy delta-reads
    (``stats.components_solved - before``) and the full Prometheus/JSON
    exports see the same numbers.  Per-phase wall-clock (decompose, solve,
    stitch, wall) is the ``repro_timing_seconds{phase}`` histogram.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._models = self.registry.counter(
            "repro_lp_models_solved_total",
            "LP models solved (after decomposition and stitching)")
        self._components = self.registry.counter(
            "repro_lp_components_solved_total",
            "Independent LP components actually solved (cache misses)")
        self._hits = self.registry.counter(
            "repro_lp_cache_hits_total", "Component-solution cache hits")
        self._misses = self.registry.counter(
            "repro_lp_cache_misses_total", "Component-solution cache misses")
        self._solve_seconds = self.registry.histogram(
            "repro_lp_solve_seconds",
            "Caller wall-clock of ParallelLPSolver batches (submits + results)")
        self._phases = self.registry.histogram(
            "repro_timing_seconds", "Per-phase wall-clock of the LP solver",
            labelnames=("phase",))

    @property
    def models_solved(self) -> int:
        return int(self._models.value())

    @property
    def components_solved(self) -> int:
        return int(self._components.value())

    @property
    def cache_hits(self) -> int:
        return int(self._hits.value())

    @property
    def cache_misses(self) -> int:
        return int(self._misses.value())

    def observe_solve(self, seconds: float) -> None:
        """Record one batch's caller wall-clock (its submits and results)."""
        self._solve_seconds.observe(seconds)
        self._phases.labels(phase="wall").observe(seconds)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time the enclosed block as one observation of phase ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self._phases.labels(phase=name).observe(
                time.perf_counter() - started)

    def __repr__(self) -> str:
        return (f"SolverStats(models_solved={self.models_solved},"
                f" components_solved={self.components_solved},"
                f" cache_hits={self.cache_hits},"
                f" cache_misses={self.cache_misses})")


class SolutionCache:
    """Interface of a component-solution cache backend.

    :class:`ParallelLPSolver` talks to its cache exclusively through this
    interface, so the default in-process LRU can be swapped for a persistent
    backend (e.g. :class:`repro.service.store.StoreSolutionCache`, which
    shares solutions across worker processes through a summary store).
    Implementations must be thread-safe: the solver calls ``get``/``put``
    concurrently from its worker threads.
    """

    #: Maximum number of entries, or ``None`` when unbounded / not applicable.
    capacity: Optional[int] = None

    def get(self, key: str) -> Optional[LPSolution]:
        """Return the cached solution for ``key``, or ``None`` on a miss."""
        raise NotImplementedError

    def put(self, key: str, solution: LPSolution) -> None:
        """Store a solution under ``key``."""
        raise NotImplementedError

    def clear(self) -> None:
        """Drop all cached solutions."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class LRUSolutionCache(SolutionCache):
    """The default backend: a thread-safe in-process LRU of ``capacity``
    entries (also the summary store's hot layer in front of its files)."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise LPError("LRUSolutionCache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[str, LPSolution]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: str) -> Optional[LPSolution]:
        with self._lock:
            solution = self._entries.get(key)
            if solution is not None:
                self._entries.move_to_end(key)
            return solution

    def put(self, key: str, solution: LPSolution) -> None:
        with self._lock:
            self._entries[key] = solution
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def pop(self, key: str) -> Optional[LPSolution]:
        """Drop one entry (the summary store's GC evicts through this)."""
        with self._lock:
            return self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class ParallelLPSolver:
    """Decomposing, caching, parallel feasibility solver.

    Every model is first split into independent connected components of its
    constraint graph (:mod:`repro.lp.decompose`).  Components are solved with
    one shared :class:`LPSolver` — concurrently on a thread pool when
    ``workers > 1`` (HiGHS releases the GIL) — and stitched back together.
    Solved components are kept in an LRU cache keyed by the canonical hash
    of their ``(A, b)`` system, so repeated regeneration requests (the
    dynamic-serving scenario of Section 6) skip redundant solves entirely.

    Parameters
    ----------
    workers:
        Maximum number of concurrent component solves.  ``1`` keeps the
        decomposition and the cache but solves inline.
    cache_size:
        Capacity of the LRU component-solution cache; ``0`` disables caching.
    prefer_integer:
        Forwarded to the underlying :class:`LPSolver`.  Its MILP size limit
        applies per component, so decomposition lets larger models keep the
        exact integral path.
    strict:
        When ``True``, raise :class:`~repro.errors.InfeasibleLPError` as soon
        as a stitched solution violates its constraints by more than
        ``STRICT_VIOLATION_TOLERANCE`` (mutually inconsistent CC sets),
        instead of reporting the violation in the diagnostics.
    cache_backend:
        Custom :class:`SolutionCache` implementation.  When given it takes
        precedence over ``cache_size`` (which then only serves as the
        documented default-backend capacity); pass a
        :class:`repro.service.store.StoreSolutionCache` to persist and share
        component solutions across processes.
    """

    def __init__(self, workers: int = DEFAULT_WORKERS,
                 cache_size: int = DEFAULT_CACHE_SIZE,
                 prefer_integer: bool = True,
                 strict: bool = False,
                 cache_backend: Optional[SolutionCache] = None) -> None:
        if workers < 1:
            raise LPError("ParallelLPSolver needs at least one worker")
        if cache_size < 0:
            raise LPError("cache_size must be non-negative")
        self.workers = workers
        self.cache_size = cache_size
        self.strict = strict
        self.lp_solver = LPSolver(prefer_integer)
        self.stats = SolverStats()
        if cache_backend is not None:
            self._cache: Optional[SolutionCache] = cache_backend
        elif cache_size > 0:
            self._cache = LRUSolutionCache(cache_size)
        else:
            self._cache = None
        # Cache keys carry a namespace derived from everything that changes
        # what a solve produces: a persistent backend may be shared between
        # solvers with different configurations (e.g. Hydra's exact-MILP path
        # and DataSynth's continuous path), and serving one's solution to the
        # other would silently change results.
        self._cache_namespace = hashlib.sha256(repr(
            (prefer_integer, MILP_VARIABLE_LIMIT, MILP_TIME_LIMIT)
        ).encode("utf-8")).hexdigest()[:12]

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def solve(self, model: LPModel) -> LPSolution:
        """Solve one model (decompose, solve components, stitch)."""
        return self.solve_many([model])[0]

    def solve_many(self, models: Sequence[LPModel]) -> List[LPSolution]:
        """Solve a batch of models, sharing one worker pool and the cache.

        Components are deduplicated across the whole batch, so e.g. the view
        LPs of two similar workloads are each solved once.  Returns one
        solution per input model, in order.
        """
        with self.batch() as batch:
            for model in models:
                batch.submit(model)
            return batch.results()

    @contextmanager
    def batch(self) -> Iterator["SolverBatch"]:
        """Open a :class:`SolverBatch`: models submitted to it start solving
        at once, while the caller goes on (e.g. formulating the next LP).

        The batch's worker pool is shut down when the block exits; components
        still queued are cancelled if it exits early.
        """
        batch = SolverBatch(self)
        try:
            yield batch
        finally:
            batch.close()

    @property
    def cache_info(self) -> Dict[str, int]:
        """Current cache occupancy and hit/miss counters."""
        if self._cache is None:
            size, capacity = 0, 0
        else:
            size = len(self._cache)
            capacity = self._cache.capacity if self._cache.capacity is not None \
                else self.cache_size
        return {
            "size": size,
            "capacity": capacity,
            "hits": self.stats.cache_hits,
            "misses": self.stats.cache_misses,
        }

    def _cache_key(self, component: LPComponent) -> str:
        """Content key of a component, namespaced by the solver config."""
        return f"{component.key}-{self._cache_namespace}"

    # ------------------------------------------------------------------ #
    # cache plumbing (delegates to the pluggable backend)
    # ------------------------------------------------------------------ #
    def _cache_get(self, key: str) -> Optional[LPSolution]:
        solution = self._cache.get(key) if self._cache is not None else None
        if solution is None:
            self.stats._misses.inc()
        else:
            self.stats._hits.inc()
        return solution

    def _cache_put(self, key: str, solution: LPSolution) -> None:
        if self._cache is not None:
            self._cache.put(key, solution)


class SolverBatch:
    """Models solved together on one :class:`ParallelLPSolver`.

    Opened by :meth:`ParallelLPSolver.batch`.  :meth:`submit` decomposes a
    model, answers its components from the cache and hands the rest to a
    worker pool that lives as long as the batch, so solves run while the
    caller prepares the next model.  :meth:`results` waits for them and
    stitches one solution per submitted model.  With ``workers == 1`` the
    pending components are solved inline inside :meth:`results`.
    """

    def __init__(self, solver: ParallelLPSolver) -> None:
        self._solver = solver
        self._models: List[LPModel] = []
        self._decompositions: List[Decomposition] = []
        #: Cache key -> solution of every component resolved so far.
        self._resolved: Dict[str, LPSolution] = {}
        #: Cache key -> in-flight solve (a future, or the component itself
        #: when it is solved inline), in submission order.
        self._pending: Dict[str, Union[Future, LPComponent]] = {}
        self._pool: Optional[ThreadPoolExecutor] = None
        #: Caller time spent in submit() calls (the solver's own share of a
        #: pipelined build; results() adds the wait and the stitch).
        self._submit_seconds = 0.0

    def submit(self, model: LPModel) -> Decomposition:
        """Decompose ``model`` and start solving its uncached components.

        Components already resolved or pending in this batch are not solved
        again.  Returns the model's decomposition.
        """
        started = time.perf_counter()
        solver = self._solver
        with trace_span("lp.decompose", model=model.name) as submit_span:
            with solver.stats.phase("decompose"):
                decomposition = decompose_model(model)
            dispatched = 0
            for component in decomposition.components:
                key = solver._cache_key(component)
                if key in self._resolved or key in self._pending:
                    continue
                cached = solver._cache_get(key)
                if cached is not None:
                    # A cache hit costs no solve time; report it as free so
                    # aggregated LP-time metrics reflect actual computation.
                    self._resolved[key] = replace(cached, solve_seconds=0.0)
                else:
                    self._pending[key] = self._dispatch(component)
                    dispatched += 1
            submit_span.set_attribute("components", len(decomposition.components))
            submit_span.set_attribute("pending", dispatched)
        self._models.append(model)
        self._decompositions.append(decomposition)
        self._submit_seconds += time.perf_counter() - started
        return decomposition

    def results(self) -> List[LPSolution]:
        """Wait for every pending solve and return one stitched solution per
        submitted model, in submission order.

        Raises :class:`~repro.errors.InfeasibleLPError` when the solver is
        ``strict`` and a stitched solution violates its constraints.
        """
        started = time.perf_counter()
        solver = self._solver
        with trace_span("lp.solve_many", models=len(self._models)) as solve_span:
            solved_by: "Counter[str]" = Counter()
            with solver.stats.phase("solve"):
                for key, pending in self._pending.items():
                    if isinstance(pending, Future):
                        solution = pending.result()
                    else:
                        solution = solver.lp_solver.solve(pending.model)
                    self._resolved[key] = solution
                    solver._cache_put(key, solution)
                    solver.stats._components.inc()
                    solved_by[solution.method] += 1
            logger.debug("solved %d pending components (%d resolved from cache)",
                         len(self._pending), len(self._resolved) - len(self._pending))

            solutions: List[LPSolution] = []
            with trace_span("lp.stitch"), solver.stats.phase("stitch"):
                for model, decomposition in zip(self._models, self._decompositions):
                    parts = [self._resolved[solver._cache_key(c)]
                             for c in decomposition.components]
                    stitched = stitch_solutions(decomposition, parts)
                    if solver.strict and stitched.max_violation > STRICT_VIOLATION_TOLERANCE:
                        raise InfeasibleLPError(
                            f"LP {model.name!r} is infeasible: residual violation"
                            f" {stitched.max_violation:g} after decomposed solve"
                        )
                    solutions.append(stitched)
            solver.stats._models.inc(len(self._models))
            solver.stats.observe_solve(
                self._submit_seconds + time.perf_counter() - started)
            solve_span.set_attribute(
                "components", sum(len(d.components) for d in self._decompositions))
            solve_span.set_attribute("solved_by", dict(sorted(solved_by.items())))
        return solutions

    def close(self) -> None:
        """Shut the worker pool down, cancelling solves not yet started."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def _dispatch(self, component: LPComponent) -> "Union[Future, LPComponent]":
        solver = self._solver
        if solver.workers == 1:
            return component
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=solver.workers)
        return self._pool.submit(solver.lp_solver.solve, component.model)
