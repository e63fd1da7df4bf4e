"""In-memory columnar tables and the run batches the executor streams.

The engine substrate stores every relation as a set of equal-length
``numpy.int64`` columns.  All values are integers (the anonymizer of the paper
maps client values to integers before they ever reach the vendor pipeline),
which keeps scans, joins and predicate evaluation simple and fast.  A
:class:`RunBatch` is a table of *runs* — rows standing for a window of
consecutive primary keys — which is how a summary-backed relation flows
through the executor without being expanded into tuples.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EngineError
from repro.predicates.conjunct import Conjunct
from repro.predicates.dnf import DNFPredicate
from repro.predicates.interval import IntervalSet


class Table:
    """A columnar table: a mapping of column name to an int64 array."""

    def __init__(self, columns: Mapping[str, np.ndarray], name: str = "") -> None:
        if not columns:
            raise EngineError("a table needs at least one column")
        arrays: Dict[str, np.ndarray] = {}
        length: Optional[int] = None
        for col_name, values in columns.items():
            arr = np.asarray(values, dtype=np.int64)
            if arr.ndim != 1:
                raise EngineError(f"column {col_name!r} must be one-dimensional")
            if length is None:
                length = arr.shape[0]
            elif arr.shape[0] != length:
                raise EngineError(
                    f"column {col_name!r} has {arr.shape[0]} rows, expected {length}"
                )
            arrays[col_name] = arr
        self.name = name
        self._columns = arrays
        self._num_rows = int(length or 0)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, column_names: Sequence[str], name: str = "") -> "Table":
        """Return a table with the given columns and zero rows."""
        return cls({c: np.empty(0, dtype=np.int64) for c in column_names}, name=name)

    @classmethod
    def concat(cls, tables: Sequence["Table"], name: str = "") -> "Table":
        """Concatenate tables with identical columns (e.g. streamed batches)."""
        if not tables:
            raise EngineError("cannot concatenate zero tables")
        if len(tables) == 1:
            return tables[0]
        columns = tables[0].column_names
        return cls({
            c: np.concatenate([t.column(c) for t in tables]) for c in columns
        }, name=name or tables[0].name)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def num_rows(self) -> int:
        """Number of rows in the table."""
        return self._num_rows

    def __len__(self) -> int:
        return self._num_rows

    @property
    def column_names(self) -> Tuple[str, ...]:
        """Column names in insertion order."""
        return tuple(self._columns)

    def column(self, name: str) -> np.ndarray:
        """Return the array backing the named column."""
        try:
            return self._columns[name]
        except KeyError:
            raise EngineError(f"table {self.name!r} has no column {name!r}") from None

    def has_column(self, name: str) -> bool:
        """Return ``True`` if the table has the named column."""
        return name in self._columns

    def row(self, index: int) -> Dict[str, int]:
        """Return a single row as a dict (slow; intended for tests/debug)."""
        if not 0 <= index < self._num_rows:
            raise EngineError(f"row index {index} out of range")
        return {c: int(arr[index]) for c, arr in self._columns.items()}

    # ------------------------------------------------------------------ #
    # relational operations used by the executor
    # ------------------------------------------------------------------ #
    def select(self, mask: np.ndarray) -> "Table":
        """Return the rows where ``mask`` is true."""
        if mask.shape[0] != self._num_rows:
            raise EngineError("selection mask length does not match table")
        return Table({c: arr[mask] for c, arr in self._columns.items()}, name=self.name)

    def take(self, indices: np.ndarray) -> "Table":
        """Return the rows at the given positions (with repetition allowed)."""
        return Table({c: arr[indices] for c, arr in self._columns.items()}, name=self.name)

    def with_columns(self, extra: Mapping[str, np.ndarray]) -> "Table":
        """Return a copy extended with additional columns."""
        merged: Dict[str, np.ndarray] = dict(self._columns)
        for name, values in extra.items():
            if name in merged:
                raise EngineError(f"column {name!r} already present")
            merged[name] = values
        return Table(merged, name=self.name)

    def project(self, columns: Sequence[str]) -> "Table":
        """Return a copy restricted to the given columns."""
        return Table({c: self.column(c) for c in columns}, name=self.name)

    # ------------------------------------------------------------------ #
    # predicate evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, predicate: DNFPredicate) -> np.ndarray:
        """Return a boolean mask of rows satisfying a DNF predicate.

        Attributes mentioned by the predicate but absent from the table make
        the corresponding conjunct false for all rows (consistent with
        :meth:`Conjunct.evaluate` on missing attributes).
        """
        if predicate.is_true:
            return np.ones(self._num_rows, dtype=bool)
        mask = np.zeros(self._num_rows, dtype=bool)
        for conjunct in predicate.conjuncts:
            mask |= self._evaluate_conjunct(conjunct)
        return mask

    def _evaluate_conjunct(self, conjunct: Conjunct) -> np.ndarray:
        mask = np.ones(self._num_rows, dtype=bool)
        for attr, values in conjunct.constraints.items():
            if not self.has_column(attr):
                return np.zeros(self._num_rows, dtype=bool)
            mask &= _membership_mask(self.column(attr), values)
            if not mask.any():
                break
        return mask

    def count(self, predicate: DNFPredicate) -> int:
        """Return the number of rows satisfying the predicate."""
        return int(self.evaluate(predicate).sum())

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def nbytes(self) -> int:
        """Approximate memory footprint of the table in bytes."""
        return sum(arr.nbytes for arr in self._columns.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, {self._num_rows} rows, {len(self._columns)} cols)"


class RunBatch:
    """A batch of *runs*, the unit every pipeline operator works on.

    Row ``i`` of ``heads`` is one run standing for ``counts[i]`` tuples.
    Every column is constant within a run except ``key``, the scanned
    relation's primary key, which counts up from ``heads[key][i]`` to
    ``heads[key][i] + counts[i] - 1``.  A regenerated relation scans as one
    run per summary row, so operators cost what its summary costs; a
    materialised table is the degenerate case of count-1 runs, with the table
    itself as ``heads`` and ``counts=None`` (no per-run counts to carry).
    Counts are always positive.
    """

    __slots__ = ("heads", "_counts", "key", "num_rows")

    def __init__(self, heads: Table, counts: Optional[np.ndarray], key: str) -> None:
        self.heads = heads
        self._counts = counts
        self.key = key
        #: Tuples the runs stand for.
        self.num_rows = heads.num_rows if counts is None else int(counts.sum())

    @classmethod
    def of_table(cls, table: Table, key: str) -> "RunBatch":
        """The rows of ``table`` as count-1 runs (no copy)."""
        return cls(table, None, key)

    @classmethod
    def concat(cls, batches: Sequence["RunBatch"]) -> "RunBatch":
        """Concatenate run batches of one relation."""
        counts = None
        if any(b._counts is not None for b in batches):
            counts = np.concatenate([b.counts for b in batches])
        return cls(Table.concat([b.heads for b in batches]), counts, batches[0].key)

    @property
    def num_runs(self) -> int:
        """Runs in the batch: the rows it actually holds."""
        return self.heads.num_rows

    @property
    def counts(self) -> np.ndarray:
        """Tuples per run."""
        if self._counts is None:
            return np.ones(self.num_runs, dtype=np.int64)
        return self._counts

    def select(self, mask: np.ndarray) -> "RunBatch":
        """The runs where ``mask`` is true."""
        counts = None if self._counts is None else self._counts[mask]
        return RunBatch(self.heads.select(mask), counts, self.key)

    def with_columns(self, extra: Mapping[str, np.ndarray]) -> "RunBatch":
        """The runs extended with per-run columns."""
        return RunBatch(self.heads.with_columns(extra), self._counts, self.key)

    def filter(self, predicate: DNFPredicate) -> "RunBatch":
        """The tuples satisfying ``predicate``, still as runs.

        The predicate is evaluated once per run.  A conjunct on ``key`` clips
        each run's key interval exactly, which may split a run into sub-runs
        (kept in key order); a run is never expanded into tuples.
        """
        if self._clips(predicate):
            return self._clip(predicate)
        return self.select(self.heads.evaluate(predicate))

    def count(self, predicate: DNFPredicate) -> int:
        """Number of tuples satisfying ``predicate``."""
        if self._clips(predicate):
            return self._clip(predicate).num_rows
        mask = self.heads.evaluate(predicate)
        if self._counts is None:
            return int(np.count_nonzero(mask))
        return int(self._counts[mask].sum())

    def expand(self) -> Table:
        """The tuples the runs stand for, in order."""
        if self.num_rows == self.num_runs:
            return self.heads
        counts = self._counts
        runs = np.repeat(np.arange(self.num_runs), counts)
        first = self.heads.column(self.key)
        keys = np.arange(self.num_rows, dtype=np.int64) + np.repeat(
            first - (np.cumsum(counts) - counts), counts)
        return Table({name: keys if name == self.key else self.heads.column(name)[runs]
                      for name in self.heads.column_names}, name=self.heads.name)

    def _clips(self, predicate: DNFPredicate) -> bool:
        # Count-1 runs hold their exact key in ``heads``: plain evaluation.
        return self.num_rows != self.num_runs and self.key in predicate.attributes

    def _clip(self, predicate: DNFPredicate) -> "RunBatch":
        first = self.heads.column(self.key)
        stop = first + self.counts
        runs, los, his = [], [], []
        for conjunct in predicate.conjuncts:
            rest = {a: v for a, v in conjunct.constraints.items() if a != self.key}
            hit = np.flatnonzero(self.heads.evaluate(DNFPredicate.of(Conjunct(rest))))
            keys = conjunct.restriction(self.key)
            bounds = [(iv.lo, iv.hi) for iv in keys] if keys is not None \
                else [(_INT64.min, _INT64.max)]
            for lo, hi in bounds:
                piece_lo = np.maximum(first[hit], lo)
                piece_hi = np.minimum(stop[hit], hi)
                keep = piece_lo < piece_hi
                runs.append(hit[keep])
                los.append(piece_lo[keep])
                his.append(piece_hi[keep])
        run = np.concatenate(runs)
        if run.size == 0:
            return self.select(np.zeros(self.num_runs, dtype=bool))
        # Lay the runs' key intervals end to end on one line, one empty slot
        # apart: a single sort then orders the pieces by (run, key), and a
        # running maximum merges the pieces that overlap within a run (two
        # conjuncts selecting the same keys) but never across runs.
        base = np.cumsum(self.counts + 1) - (self.counts + 1) - first
        lo_line = np.concatenate(los) + base[run]
        hi_line = np.concatenate(his) + base[run]
        order = np.argsort(lo_line, kind="stable")
        run, lo_line, hi_line = run[order], lo_line[order], hi_line[order]
        reach = np.maximum.accumulate(hi_line)
        starts = np.flatnonzero(np.concatenate(([True], lo_line[1:] > reach[:-1])))
        ends = np.append(starts[1:], run.size) - 1
        run = run[starts]
        columns = {name: self.heads.column(name)[run]
                   for name in self.heads.column_names}
        columns[self.key] = lo_line[starts] - base[run]
        return RunBatch(Table(columns, name=self.heads.name),
                        reach[ends] - lo_line[starts], self.key)


_INT64 = np.iinfo(np.int64)


def _membership_mask(values: np.ndarray, allowed: IntervalSet) -> np.ndarray:
    """Vectorised membership test of ``values`` in an :class:`IntervalSet`."""
    mask = np.zeros(values.shape[0], dtype=bool)
    for interval in allowed:
        mask |= (values >= interval.lo) & (values < interval.hi)
    return mask
