"""Spans recorded by the benchmark around the calls into each layer.

Nothing under ``src/`` is instrumented: the traced pass either calls a
layer's public function itself inside :meth:`Tracer.span`, or swaps a bound
method of a live object (a store, a service) for a wrapper that opens a span
and delegates (:meth:`Tracer.wrap`).  Spans are kept in memory and written
as JSON lines at the end; a layer's self time is its spans' durations minus
the part their child spans cover.

The in-process workloads are closed loops with one caller, so at most one
span is open at a time even when the service runs a build on its worker
thread while the caller waits.  The open-span stack is therefore shared
across threads (behind a lock) instead of being thread-local, which is what
lets a ``store.put`` made by the worker nest under the caller's operation.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._lock = threading.Lock()
        self._stack: List[Dict[str, object]] = []
        self._next_id = 1
        self._next_trace = 1

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Dict[str, object]]:
        """Record one span; a span opened with no parent starts a new trace."""
        with self._lock:
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                trace = self._next_trace
                self._next_trace += 1
            else:
                trace = parent["trace"]
            record: Dict[str, object] = {
                "trace": trace, "span": self._next_id,
                "parent": parent["span"] if parent else None,
                "name": name, **attributes,
            }
            self._next_id += 1
            self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            with self._lock:
                self._stack.remove(record)
                self.spans.append(record)

    def wrap(self, target: object, method: str, name: str) -> None:
        """Make ``target.method(...)`` run inside a span called ``name``."""
        original = getattr(target, method)

        @functools.wraps(original)
        def traced(*args: object, **kwargs: object) -> object:
            with self.span(name):
                return original(*args, **kwargs)

        setattr(target, method, traced)

    def self_seconds(self, since: int = 0) -> Dict[str, float]:
        """Self time per span name over the spans recorded from ``since`` on."""
        spans = self.spans[since:]
        covered: Dict[int, float] = {}
        for span in spans:
            if span["parent"] is not None:
                covered[span["parent"]] = covered.get(span["parent"], 0.0) \
                    + (span["end"] - span["start"])
        totals: Dict[str, float] = {}
        for span in spans:
            own = (span["end"] - span["start"]) - covered.get(span["span"], 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def write(self, path: Optional[Path]) -> None:
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span, sort_keys=True) + "\n")
