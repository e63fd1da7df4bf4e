"""A database instance: a schema plus one :class:`Table` per relation."""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple, Union

import numpy as np

from repro.engine.table import RunBatch, Table
from repro.errors import EngineError
from repro.schema.schema import Schema

#: What a stream-attached relation yields per batch.
Batch = Union[Table, RunBatch]


class Database:
    """An in-memory database: a validated schema and its relation instances.

    Tables may be attached lazily, which is how the Tuple Generator of
    Section 6 plugs into the engine: :meth:`attach_stream` registers a
    factory of *batches* — columnar tables, or the run batches a summary
    scans as.  Streaming consumers pull batches via :meth:`scan_batches`
    without the relation ever being materialised, while whole-table
    consumers get a concatenated (and then cached) table from
    :meth:`table`.
    """

    def __init__(self, schema: Schema, tables: Optional[Mapping[str, Table]] = None,
                 name: str = "db") -> None:
        self.schema = schema
        self.name = name
        self._tables: Dict[str, Table] = {}
        self._streams: Dict[str, Callable[[], Iterator[Batch]]] = {}
        #: Declared total rows of stream-attached relations (see
        #: :meth:`attach_stream`); lets :meth:`row_count` answer for free.
        self._stream_rows: Dict[str, int] = {}
        #: Iterator returned by the most recent factory call per stream
        #: relation, used to detect factories that violate the fresh-iterator
        #: contract (see :meth:`scan_batches`).
        self._stream_passes: Dict[str, Iterator[Batch]] = {}
        for rel_name, table in (tables or {}).items():
            self.attach(rel_name, table)

    # ------------------------------------------------------------------ #
    # table management
    # ------------------------------------------------------------------ #
    def attach(self, relation: str, table: Table) -> None:
        """Attach a materialised table for ``relation``."""
        rel = self.schema.relation(relation)
        missing = [c for c in rel.all_columns if not table.has_column(c)]
        if missing:
            raise EngineError(
                f"table for {relation!r} is missing columns {missing!r}"
            )
        self._tables[relation] = table
        self._streams.pop(relation, None)
        self._stream_passes.pop(relation, None)

    def attach_stream(self, relation: str,
                      stream_factory: Callable[[], Iterator[Batch]],
                      row_count: Optional[int] = None) -> None:
        """Register a batch-streaming source for ``relation``.

        ``stream_factory`` is a zero-argument callable returning a **fresh**
        iterator of batches on *every* call: columnar tables, or run batches
        keyed on the relation's primary key (how a summary-backed relation
        scans).  Each scan is one full independent single-pass cursor over
        the relation, and the factory is re-invoked per scan.  A factory
        that hands back the same (by then exhausted) iterator object twice
        would silently yield an empty or truncated second scan; the database
        detects this and raises :class:`EngineError` instead (see
        :meth:`scan_batches`).  Nothing is generated until the relation is
        scanned; :meth:`scan_batches` consumes batches one at a time
        (bounded memory), and :meth:`table` concatenates a full pass and
        caches the result for subsequent whole-table access.

        ``row_count`` declares the stream's total rows when the source knows
        it up front (a tuple generator always does): :meth:`row_count` then
        answers without consuming a stream pass — essential when the stream
        expands a scale-free summary to billions of tuples.
        """
        self.schema.relation(relation)
        self._streams[relation] = stream_factory
        self._stream_passes.pop(relation, None)
        if row_count is not None:
            self._stream_rows[relation] = int(row_count)
        else:
            self._stream_rows.pop(relation, None)
        self._tables.pop(relation, None)

    def table(self, relation: str) -> Table:
        """Return the table for ``relation``, materialising it if dynamic."""
        if relation in self._tables:
            return self._tables[relation]
        if relation in self._streams:
            table = self._concat_batches(relation, self._stream_pass(relation))
            self._tables[relation] = table
            return table
        raise EngineError(f"no data attached for relation {relation!r}")

    def scan_batches(self, relation: str) -> Iterator[Batch]:
        """Iterate over the relation in batches.

        Stream-attached relations are served straight from their batch
        factory without ever materialising the whole table; already
        materialised relations yield a single :class:`Table`.
        Unknown relations raise immediately, not at first iteration.

        **Single-pass contract:** every call starts one fresh, independent
        pass — the stream factory is re-invoked and must return a new
        iterator each time (restartable sources such as
        :meth:`~repro.tuplegen.generator.TupleGenerator.runs` do this
        naturally).  A factory that returns the same iterator object as a
        previous scan would silently serve empty or truncated data from the
        exhausted cursor; that violation raises :class:`EngineError` here —
        re-attach via :meth:`attach_stream` to reset a one-shot source.
        """
        if relation in self._streams and relation not in self._tables:
            return self._stream_pass(relation)
        table = self.table(relation)  # raises EngineError when unattached
        return iter((table,))

    def is_dynamic(self, relation: str) -> bool:
        """Return ``True`` if the relation is served by a batch stream that
        has not been materialised yet."""
        return relation in self._streams and relation not in self._tables

    @property
    def relations(self) -> Tuple[str, ...]:
        """Names of relations with attached data."""
        return tuple(sorted(set(self._tables) | set(self._streams)))

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _stream_pass(self, relation: str) -> Iterator[Batch]:
        """Start one fresh pass over a stream-attached relation, enforcing
        the fresh-iterator contract of :meth:`scan_batches`."""
        batches = self._streams[relation]()
        if batches is self._stream_passes.get(relation):
            raise EngineError(
                f"stream factory for relation {relation!r} returned the same"
                " iterator object as a previous scan; each scan consumes one"
                " full single-pass cursor, so the factory must return a fresh"
                " iterator per call (re-attach via attach_stream to reset a"
                " one-shot source)"
            )
        self._stream_passes[relation] = batches
        return batches

    def _concat_batches(self, relation: str, batches: Iterator[Batch]) -> Table:
        """Concatenate a batch stream into one table, expanding run batches
        (empty streams produce a zero-row table with the relation's schema
        columns)."""
        collected = [batch.expand() if isinstance(batch, RunBatch) else batch
                     for batch in batches]
        if not collected:
            rel = self.schema.relation(relation)
            return Table.empty(rel.all_columns, name=relation)
        return Table.concat(collected, name=relation)

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def row_count(self, relation: str) -> int:
        """Return the number of rows of one attached relation.

        Stream-attached relations answer from their declared row count when
        the source provided one, and are otherwise counted by consuming a
        batch stream pass (bounded memory) *without* materialising or caching
        the full table — either way counting does not defeat dynamic
        generation.
        """
        if relation in self._tables:
            return self._tables[relation].num_rows
        if relation in self._streams:
            declared = self._stream_rows.get(relation)
            if declared is not None:
                return declared
            return sum(batch.num_rows for batch in self._stream_pass(relation))
        return self.table(relation).num_rows  # raises: nothing attached

    def row_counts(self) -> Dict[str, int]:
        """Return the number of rows per attached relation (materialised or
        stream-attached)."""
        return {name: self.row_count(name) for name in self.relations}

    def total_rows(self) -> int:
        """Total rows across all attached relations."""
        return sum(self.row_counts().values())

    def nbytes(self) -> int:
        """Approximate in-memory footprint of all materialised tables."""
        return sum(self._tables[name].nbytes() for name in self._tables)

    # ------------------------------------------------------------------ #
    # persistence (used by the Figure 15 disk-vs-dynamic experiment)
    # ------------------------------------------------------------------ #
    def dump(self, directory: Path) -> Dict[str, Path]:
        """Write every materialised relation to ``directory`` as ``.npz``
        files and return the file path per relation."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths: Dict[str, Path] = {}
        for name in self.relations:
            table = self.table(name)
            path = directory / f"{name}.npz"
            np.savez(path, **{c: table.column(c) for c in table.column_names})
            paths[name] = path
        return paths

    @classmethod
    def load(cls, schema: Schema, directory: Path, name: str = "db") -> "Database":
        """Load a database previously written by :meth:`dump`."""
        directory = Path(directory)
        db = cls(schema, name=name)
        for rel in schema.relations:
            path = directory / f"{rel.name}.npz"
            if not path.exists():
                continue
            with np.load(path) as data:
                table = Table({c: data[c] for c in data.files}, name=rel.name)
            db.attach(rel.name, table)
        return db

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database({self.name!r}, {len(self.relations)} relations)"
