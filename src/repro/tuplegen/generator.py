"""The Tuple Generator (Section 6).

The tuple generator turns a :class:`~repro.summary.RelationSummary` into
actual rows.  Primary keys are row numbers; to produce the ``r``-th tuple the
generator locates the summary row whose cumulative ``NumTuples`` first
reaches ``r`` and copies its value combination.  Four access paths are
provided:

* :meth:`TupleGenerator.row` — random access to a single tuple,
* :meth:`TupleGenerator.runs` — the relation as run batches, one run per
  summary row (the on-demand scan used inside the engine instead of reading
  from disk: queries cost what the summary costs, not what it expands to),
* :meth:`TupleGenerator.stream` — streaming generation of tuple batches,
* :meth:`TupleGenerator.materialize` — build the full columnar table.

All bulk paths are fully vectorised: the summary's value combinations are
kept as one ``(K, C)`` matrix, and a batch is produced with a single
``searchsorted`` + ``repeat`` + fancy-index sequence — no per-row Python
loop, so generation throughput is bounded by memory bandwidth rather than
the interpreter.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple, TypeVar

import numpy as np

from repro.engine.database import Database
from repro.engine.table import RunBatch, Table
from repro.errors import GenerationError
from repro.obs.trace import get_tracer
from repro.schema.schema import Schema
from repro.summary.relation_summary import DatabaseSummary, RelationSummary

#: Default number of tuples produced per streamed batch.
DEFAULT_BATCH_SIZE = 65_536

#: What one streamed batch is: a :class:`Table`, or an encoder's output.
Batch = TypeVar("Batch")


class TupleGenerator:
    """Generates tuples of one relation from its summary."""

    def __init__(self, summary: RelationSummary) -> None:
        self.summary = summary
        counts = np.array([count for _, count in summary.rows], dtype=np.int64)
        self._counts = counts
        #: Inclusive cumulative tuple counts per summary row.
        self._prefix = np.cumsum(counts) if counts.size else np.zeros(0, dtype=np.int64)
        self._total = int(self._prefix[-1]) if counts.size else 0
        if summary.rows:
            self._values = np.array([values for values, _ in summary.rows],
                                    dtype=np.int64)
        else:
            self._values = np.zeros((0, len(summary.columns)), dtype=np.int64)
        #: Diagnostics: how often the full relation was materialised in one
        #: shot, and how many streamed batches were produced.  The laziness
        #: tests assert dynamic databases never trip the former.
        self.full_materializations = 0
        self.batches_streamed = 0

    # ------------------------------------------------------------------ #
    # random access
    # ------------------------------------------------------------------ #
    @property
    def total_rows(self) -> int:
        """Number of tuples the relation expands to."""
        return self._total

    def row(self, r: int) -> Dict[str, int]:
        """Return the ``r``-th tuple (1-based), including its primary key."""
        if not 1 <= r <= self._total:
            raise GenerationError(
                f"row number {r} out of range 1..{self._total} for {self.summary.relation!r}"
            )
        position = int(np.searchsorted(self._prefix, r, side="left"))
        out = {self.summary.primary_key: r}
        out.update({
            column: int(self._values[position, i])
            for i, column in enumerate(self.summary.columns)
        })
        return out

    # ------------------------------------------------------------------ #
    # streaming generation
    # ------------------------------------------------------------------ #
    def runs(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[RunBatch]:
        """Yield the relation as run batches of at most ``batch_size`` runs.

        This is the engine-facing access path: every summary row is one run
        (its values plus its window of primary keys), so the executor's
        filters and joins work per summary row and nothing is expanded into
        tuples.  Peak memory is one batch of runs, independent of the scale
        the summary expands to.
        """
        if batch_size <= 0:
            raise GenerationError("batch size must be positive")
        return self._iter_runs(batch_size)

    def _iter_runs(self, batch_size: int) -> Iterator[RunBatch]:
        start = 1
        for stop in self._prefix[batch_size - 1::batch_size].tolist() + [self._total]:
            if stop >= start:
                yield self.run_batch(start, stop)
                start = stop + 1

    def stream(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[Table]:
        """Yield the relation as a sequence of columnar tuple batches.

        Peak memory is one batch, independent of the relation's size.
        """
        return self.stream_range(batch_size=batch_size)

    def stream_range(self, start_row: int = 1, stop_row: Optional[int] = None,
                     batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[Table]:
        """Stream the contiguous row shard ``start_row..stop_row`` (1-based,
        inclusive; ``stop_row=None`` means the last row) in columnar batches.

        This is the handle concurrent consumers use to split one relation
        into disjoint shards — e.g. the regeneration service hands each
        client its own range, all served by the same shared generator (the
        generator keeps no cursor state, so ranges can be pulled from any
        number of threads at once).  Arguments are validated eagerly, at the
        call site rather than at first iteration.
        """
        return self.encode_range(self._batch, start_row, stop_row, batch_size)

    def encode_range(self, encode: Callable[[int, int], Batch],
                     start_row: int = 1, stop_row: Optional[int] = None,
                     batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        """:meth:`stream_range` with each batch made by ``encode(start,
        stop)`` (1-based, inclusive keys) instead of built as a
        :class:`Table` — how a consumer that wants another representation
        (the NDJSON wire encoder) gets it straight from :meth:`run_window`
        without the columnar batch in between.  Same eager validation, same
        ``tuplegen.stream_range`` span, same ``batches_streamed`` count.
        """
        if batch_size <= 0:
            raise GenerationError("batch size must be positive")
        stop_row = self._total if stop_row is None else stop_row
        if start_row < 1 or stop_row > self._total:
            raise GenerationError(
                f"row range {start_row}..{stop_row} out of bounds 1..{self._total}"
                f" for {self.summary.relation!r}"
            )
        return self._iter_range(encode, start_row, stop_row, batch_size)

    def _iter_range(self, encode: Callable[[int, int], Batch], start: int,
                    stop_row: int, batch_size: int) -> Iterator[Batch]:
        # The span is started (not entered) so it never becomes the consumer's
        # *current* span: a cursor's lifetime crosses yields, and leaving the
        # contextvar set between batches would corrupt the consumer's context.
        span = get_tracer().start_span(
            "tuplegen.stream_range", relation=self.summary.relation,
            start_row=start, stop_row=stop_row)
        batches = 0
        try:
            while start <= stop_row:
                stop = min(start + batch_size - 1, stop_row)
                batch = encode(start, stop)
                self.batches_streamed += 1
                yield batch
                batches += 1
                start = stop + 1
        except GeneratorExit:
            span.set_attribute("batches", batches)
            span.set_attribute("closed_early", True)
            span.finish()
            raise
        except BaseException as error:
            span.set_attribute("batches", batches)
            span.finish(error)
            raise
        span.set_attribute("batches", batches)
        span.finish()

    def run_window(self, start: int, stop: int) -> Tuple[int, np.ndarray]:
        """The summary-row runs covering primary keys ``start..stop``
        (1-based, inclusive, within ``1..total_rows``).

        Returns ``(first, repeats)``: the keys are, in order, ``repeats[i]``
        copies of summary row ``first + i``, the boundary rows' counts
        trimmed to the window.  This is the whole cost of locating a batch —
        two binary searches — and every bulk path (columnar batches here,
        the wire encoder in :mod:`repro.server.wire`) expands from it.
        """
        lo = int(np.searchsorted(self._prefix, start, side="left"))
        hi = int(np.searchsorted(self._prefix, stop, side="left"))
        repeats = self._counts[lo:hi + 1].copy()
        before = int(self._prefix[lo - 1]) if lo > 0 else 0
        repeats[0] -= start - 1 - before
        repeats[-1] -= int(self._prefix[hi]) - stop
        return lo, repeats

    def run_batch(self, start: int, stop: int) -> RunBatch:
        """The tuples with primary keys ``start..stop`` (1-based, inclusive)
        as runs: one per summary row in :meth:`run_window`, its values
        constant, its keys consecutive."""
        lo, repeats = self.run_window(start, stop)
        rows = np.arange(lo, lo + len(repeats))
        if not repeats.all():  # summary rows standing for no tuple
            rows, repeats = rows[repeats > 0], repeats[repeats > 0]
        heads: Dict[str, np.ndarray] = {
            self.summary.primary_key: start + np.cumsum(repeats) - repeats
        }
        for i, column in enumerate(self.summary.columns):
            heads[column] = self._values[rows, i]
        return RunBatch(Table(heads, name=self.summary.relation), repeats,
                        self.summary.primary_key)

    def _batch(self, start: int, stop: int) -> Table:
        """Build the batch of tuples with primary keys ``start..stop``
        (1-based, inclusive) in one vectorised pass."""
        return self.run_batch(start, stop).expand()

    def table_from_stream(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Table:
        """Assemble the full relation by concatenating streamed batches.

        Functionally equivalent to :meth:`materialize` but exercises the
        batched path (and therefore does not count as a full one-shot
        materialisation in the diagnostics).
        """
        batches = list(self.stream(batch_size=batch_size))
        if not batches:
            columns = (self.summary.primary_key,) + self.summary.columns
            return Table.empty(columns, name=self.summary.relation)
        return Table.concat(batches, name=self.summary.relation)

    # ------------------------------------------------------------------ #
    # materialisation
    # ------------------------------------------------------------------ #
    def materialize(self) -> Table:
        """Materialise the full relation as a columnar table."""
        self.full_materializations += 1
        columns: Dict[str, np.ndarray] = {
            self.summary.primary_key: np.arange(1, self._total + 1, dtype=np.int64)
        }
        if self._values.shape[0]:
            expanded = np.repeat(self._values, self._counts, axis=0)
            for i, column in enumerate(self.summary.columns):
                columns[column] = expanded[:, i]
        else:
            for column in self.summary.columns:
                columns[column] = np.empty(0, dtype=np.int64)
        return Table(columns, name=self.summary.relation)


# ---------------------------------------------------------------------- #
# database-level helpers
# ---------------------------------------------------------------------- #
def materialize_database(summary: DatabaseSummary, schema: Schema,
                         name: str = "synthetic") -> Database:
    """Materialise every relation of a database summary into a
    :class:`~repro.engine.database.Database`."""
    database = Database(schema, name=name)
    for relation, relation_summary in summary.relations.items():
        database.attach(relation, TupleGenerator(relation_summary).materialize())
    return database


def dynamic_database(summary: DatabaseSummary, schema: Schema,
                     name: str = "synthetic-dynamic",
                     batch_size: int = DEFAULT_BATCH_SIZE) -> Database:
    """Build a database whose relations are generated on demand (the
    ``datagen`` mode of Section 6).

    Each relation is registered as a *batch stream*: nothing at all is
    generated until the relation is first scanned, and the scan itself is
    served as run batches of at most ``batch_size`` summary rows by
    :meth:`TupleGenerator.runs` — the executor never expands them, and
    whole-table access concatenates expanded batches rather than calling
    an eager one-shot :meth:`TupleGenerator.materialize`.
    """
    database = Database(schema, name=name)
    for relation, relation_summary in summary.relations.items():
        generator = TupleGenerator(relation_summary)

        def stream_factory(generator: TupleGenerator = generator) -> Iterator[RunBatch]:
            return generator.runs(batch_size=batch_size)

        database.attach_stream(relation, stream_factory,
                               row_count=generator.total_rows)
    return database
