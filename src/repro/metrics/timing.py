"""A context-manager stopwatch for the experiment harness.

Phase timings of instrumented components (e.g. the LP solver's
``repro_timing_seconds{phase}`` histogram) live in :mod:`repro.obs`.
"""

from __future__ import annotations

import time
from typing import Optional


class Timer:
    """A context-manager stopwatch.

    Examples
    --------
    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.seconds >= 0.0
    True
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._start is not None:
            self.seconds = time.perf_counter() - self._start
            self._start = None
