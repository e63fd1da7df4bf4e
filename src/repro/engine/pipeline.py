"""Volcano-style run-batch execution pipeline.

The operators in this module evaluate the paper's left-deep AQP plans
batch-at-a-time instead of table-at-a-time: the root (fact) relation is
pulled through :meth:`~repro.engine.database.Database.scan_batches`, filters
and PK-FK joins are applied to one batch at a time, and a sink at the top of
the chain accumulates whatever the caller needs (the full result table,
plain cardinalities, or per-predicate counts).

Every batch is a :class:`~repro.engine.table.RunBatch`: rows of constant
column values, each standing for a window of consecutive root primary keys.
A regenerated relation scans its summary rows as runs, so a filter is
evaluated once per run and a join probes once per run — execution costs
what the summary costs, whatever scale it expands to.  A materialised table
(or a stream of tables) enters as count-1 runs, which makes the same
operators ordinary tuple-at-a-time-equivalent columnar execution.  The
result is *identical* to table-at-a-time execution: filters are row-local,
a key predicate clips a run's key window exactly, and a PK-FK join matches
every tuple of a run (they share the foreign key) against at most one
parent tuple, so row order and every operator cardinality are preserved.

Operator chains are single-use: each operator counts the tuples it emits in
``rows_out`` (the AQP annotation) while it is drained, so a chain must be
built, drained through exactly one sink, and then only inspected — a second
drain raises :class:`EngineError` rather than double-counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.engine.database import Database
from repro.engine.table import RunBatch, Table
from repro.errors import EngineError
from repro.predicates.dnf import DNFPredicate


@dataclass
class PipelineStats:
    """Memory-accounting hook shared by every operator of an executor.

    ``peak_batch_rows`` is the largest batch, in run rows, that flowed
    through any operator — the executor's peak working-set size.  A
    regenerated relation's batches hold at most one run per summary row; in
    table-at-a-time (``materialize``) mode the executor feeds every full
    intermediate table through the same hook as count-1 runs, so the counter
    doubles as the apples-to-apples memory-footprint comparison between the
    two modes (dimension build sides are excluded in both).  ``rows`` sums
    the run rows pushed through operators and ``tuples`` the tuples the
    root scans stood for.
    """

    batches: int = 0
    peak_batch_rows: int = 0
    rows: int = 0
    tuples: int = 0

    def observe(self, num_rows: int) -> None:
        """Record one batch (or one full intermediate) of ``num_rows`` runs."""
        self.batches += 1
        self.rows += num_rows
        if num_rows > self.peak_batch_rows:
            self.peak_batch_rows = num_rows


class BatchOperator:
    """Base class of the streaming operators: an iterable of run batches
    that counts the tuples it emits."""

    def __init__(self, stats: Optional[PipelineStats] = None) -> None:
        self.stats = stats
        #: Total tuples emitted so far — the operator's AQP cardinality once
        #: the chain has been fully drained.
        self.rows_out = 0
        self._consumed = False

    def __iter__(self) -> Iterator[RunBatch]:
        if self._consumed:
            raise EngineError(
                f"{type(self).__name__} has already been drained; operator"
                " chains are single-use — build a new pipeline"
            )
        self._consumed = True
        for batch in self._produce():
            self.rows_out += batch.num_rows
            if self.stats is not None:
                self.stats.observe(batch.num_runs)
            yield batch

    def _produce(self) -> Iterator[RunBatch]:
        raise NotImplementedError


class BatchScan(BatchOperator):
    """Leaf operator: pulls a relation's batches from the database.

    Stream-attached relations are served straight from their batch factory
    (one fresh single pass, see :meth:`Database.scan_batches`): run batches
    as they come, table batches as count-1 runs.  Materialised relations
    arrive as a single batch.  A source that yields no batches at all still
    emits one empty batch carrying the relation's schema columns, so
    downstream operators always see the correct shape.
    """

    def __init__(self, database: Database, relation: str,
                 stats: Optional[PipelineStats] = None) -> None:
        super().__init__(stats)
        self.database = database
        self.relation = relation

    def _produce(self) -> Iterator[RunBatch]:
        rel = self.database.schema.relation(self.relation)
        empty = True
        for batch in self.database.scan_batches(self.relation):
            empty = False
            if not isinstance(batch, RunBatch):
                batch = RunBatch.of_table(batch, rel.primary_key)
            if self.stats is not None:
                self.stats.tuples += batch.num_rows
            yield batch
        if empty:
            yield RunBatch.of_table(
                Table.empty(rel.all_columns, name=self.relation), rel.primary_key)


class BatchFilter(BatchOperator):
    """Selection applied batch-by-batch, once per run."""

    def __init__(self, source: BatchOperator, predicate: DNFPredicate,
                 stats: Optional[PipelineStats] = None) -> None:
        super().__init__(stats)
        self.source = source
        self.predicate = predicate

    def _produce(self) -> Iterator[RunBatch]:
        for batch in self.source:
            yield batch.filter(self.predicate)


class HashJoinBuild:
    """The build side of a PK-FK join: a (filtered) parent relation's runs
    indexed by their primary-key intervals ``[first, first + count - 1]``.

    The index is the intervals sorted by first key — they are disjoint,
    so their last keys sort the same way — probed with a vectorised binary
    search on the last keys: a foreign key matches the first interval
    ending at or after it iff that interval starts at or before it.  For
    count-1 runs this is an exact primary-key lookup.  Built once per join
    and probed by every batch.
    """

    def __init__(self, runs: RunBatch) -> None:
        self.runs = runs
        first = runs.heads.column(runs.key)
        self._order = np.argsort(first, kind="stable")
        self._last = (first + runs.counts - 1)[self._order]
        # One slot past the end keeps the probe's gather in bounds for keys
        # beyond every interval, which ``positions < len`` then rejects.
        self._first = np.append(first[self._order], 0)

    def probe(self, left: RunBatch, fk_column: str) -> RunBatch:
        """Join ``left`` runs whose ``fk_column`` falls in a build-side
        interval, carrying over every build-side column not already present
        (the parent's key aside)."""
        if not left.heads.has_column(fk_column):
            raise EngineError(
                f"intermediate result is missing foreign-key column {fk_column!r}"
            )
        fks = left.heads.column(fk_column)
        positions = np.searchsorted(self._last, fks)
        matched = (positions < len(self._last)) & (self._first[positions] <= fks)
        joined = left.select(matched)
        build_rows = self._order[positions[matched]]
        parent = self.runs.heads
        extra: Dict[str, np.ndarray] = {}
        for column in parent.column_names:
            if column == self.runs.key or joined.heads.has_column(column):
                continue
            extra[column] = parent.column(column)[build_rows]
        return joined.with_columns(extra)


class BatchHashJoin(BatchOperator):
    """PK-FK join: probes each batch against a prebuilt parent side.  All
    tuples of a run share the foreign key, so a run matches whole or not at
    all, against at most one parent run — the join neither reorders nor
    duplicates probe runs, and batch boundaries are preserved exactly."""

    def __init__(self, source: BatchOperator, fk_column: str,
                 build: HashJoinBuild,
                 stats: Optional[PipelineStats] = None) -> None:
        super().__init__(stats)
        self.source = source
        self.fk_column = fk_column
        self.build = build

    def _produce(self) -> Iterator[RunBatch]:
        for batch in self.source:
            yield self.build.probe(batch, self.fk_column)


# ---------------------------------------------------------------------- #
# sinks
# ---------------------------------------------------------------------- #
def collect(pipeline: BatchOperator) -> Table:
    """Drain the pipeline and concatenate its tuples into one table — the
    only sink that expands runs."""
    # BatchScan always emits at least one (possibly empty) batch, which
    # Table.concat requires.
    return Table.concat([batch.expand() for batch in pipeline])


def drain(pipeline: BatchOperator) -> int:
    """Drain the pipeline, discarding batches; returns the emitted tuples.

    This is the cardinality-accumulating sink of AQP collection: after
    draining, every operator's ``rows_out`` holds its annotation while peak
    memory stayed at one batch.
    """
    rows = 0
    for batch in pipeline:
        rows += batch.num_rows
    return rows


def count_predicates(pipeline: BatchOperator,
                     predicates: Sequence[DNFPredicate]) -> List[int]:
    """Drain the pipeline, accumulating per-predicate tuple counts.

    Evaluates every predicate once per run as the batches stream past —
    equivalent to ``collect(pipeline).count(p)`` for each predicate, at one
    batch of peak memory.
    """
    counts = [0] * len(predicates)
    for batch in pipeline:
        for i, predicate in enumerate(predicates):
            counts[i] += batch.count(predicate)
    return counts
