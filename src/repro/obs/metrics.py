"""The thread-safe metrics registry: labeled counters, gauges, histograms.

One :class:`MetricsRegistry` holds a set of named metric *families*; a family
with label names fans out into one child time series per distinct label-value
combination (``requests.labels(tenant="a").inc()``), exactly like the
Prometheus data model it exports to.  Three metric kinds:

* :class:`Counter` — monotonically increasing totals (requests, hits,
  evictions).  Names end in ``_total`` by convention.
* :class:`Gauge` — values that go up and down (queue depth, store bytes).
* :class:`Histogram` — distributions over fixed **log-scale buckets** with
  p50/p95/p99 estimation.  The default buckets span 1µs..10ks at 8 buckets
  per decade, so any quantile estimate is within one bucket of the truth —
  a guaranteed relative error bound of ``10^(1/8) ≈ 1.334`` (the accuracy
  tests assert exactly this).

Everything is safe to update from any number of threads: each family holds
one lock, updates are a dict lookup plus an add, and nothing on a hot path
allocates after the first observation of a label set.  A registry can be
``enabled=False``, turning every update into a no-op while keeping the full
read API (snapshots report zeros) — the ``obs_enabled`` config knob.

Exports: :meth:`MetricsRegistry.snapshot` (plain dicts, monitoring-friendly),
:meth:`MetricsRegistry.to_prometheus` (text exposition format, scrapeable),
and :meth:`MetricsRegistry.to_json` (machine-readable dump for CI and
scripts).  The process-wide default registry is reachable via
:func:`get_registry`; components that need isolated counters (each
:class:`~repro.service.RegenerationService`, each
:class:`~repro.service.store.SummaryStore`) construct their own.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError

#: Default histogram buckets: log-scale upper bounds, 8 per decade across
#: 1e-6 .. 1e4 (seconds).  Ratio between consecutive bounds: 10**(1/8).
DEFAULT_BUCKETS_PER_DECADE = 8

#: Guaranteed relative error bound of quantile estimates over the default
#: buckets (one bucket of slack): ``10 ** (1 / DEFAULT_BUCKETS_PER_DECADE)``.
QUANTILE_RELATIVE_ERROR = 10.0 ** (1.0 / DEFAULT_BUCKETS_PER_DECADE)


def log_buckets(minimum: float = 1e-6, maximum: float = 1e4,
                per_decade: int = DEFAULT_BUCKETS_PER_DECADE) -> Tuple[float, ...]:
    """Log-scale histogram bucket upper bounds covering ``minimum..maximum``.

    >>> bounds = log_buckets(1e-3, 1e0, per_decade=1)
    >>> [round(b, 4) for b in bounds]
    [0.001, 0.01, 0.1, 1.0]
    """
    if minimum <= 0 or maximum <= minimum or per_decade < 1:
        raise ObservabilityError("log_buckets needs 0 < minimum < maximum"
                                 " and per_decade >= 1")
    steps = int(round(math.log10(maximum / minimum) * per_decade))
    return tuple(minimum * 10.0 ** (i / per_decade) for i in range(steps + 1))


DEFAULT_BUCKETS = log_buckets()

_NAME_OK = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ObservabilityError(
            f"invalid metric name {name!r}: use lowercase [a-z0-9_], not"
            " starting with a digit"
        )
    return name


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_suffix(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(f'{k}="{_escape_label(v)}"'
                     for k, v in zip(labelnames, labelvalues))
    return "{" + pairs + "}"


class _Child:
    """One time series of a family (one label-value combination)."""

    __slots__ = ("_family", "labelvalues")

    def __init__(self, family: "_Family", labelvalues: Tuple[str, ...]) -> None:
        self._family = family
        self.labelvalues = labelvalues


class CounterChild(_Child):
    __slots__ = ("_value",)

    def __init__(self, family: "_Family", labelvalues: Tuple[str, ...]) -> None:
        super().__init__(family, labelvalues)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ObservabilityError("counters only go up; use a gauge")
        family = self._family
        if not family.registry.enabled:
            return
        with family._lock:
            self._value += amount

    def value(self) -> float:
        with self._family._lock:
            return self._value


class GaugeChild(_Child):
    __slots__ = ("_value",)

    def __init__(self, family: "_Family", labelvalues: Tuple[str, ...]) -> None:
        super().__init__(family, labelvalues)
        self._value = 0.0

    def set(self, value: float) -> None:
        family = self._family
        if not family.registry.enabled:
            return
        with family._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        family = self._family
        if not family.registry.enabled:
            return
        with family._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is below it (peak tracking)."""
        family = self._family
        if not family.registry.enabled:
            return
        with family._lock:
            if value > self._value:
                self._value = float(value)

    def value(self) -> float:
        with self._family._lock:
            return self._value


class HistogramChild(_Child):
    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self, family: "_Family", labelvalues: Tuple[str, ...]) -> None:
        super().__init__(family, labelvalues)
        self.counts = [0] * (len(family.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        family = self._family
        if not family.registry.enabled:
            return
        index = bisect_left(family.buckets, value)
        with family._lock:
            self.counts[index] += 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1); ``nan`` with no data.

        The estimate interpolates linearly inside the bucket containing the
        target rank and is clamped to the observed min/max, so it is always
        within one bucket of the exact quantile — a relative error of at
        most the bucket ratio (:data:`QUANTILE_RELATIVE_ERROR` for the
        default buckets).
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile {q} out of range [0, 1]")
        family = self._family
        with family._lock:
            if self.count == 0:
                return math.nan
            target = q * self.count
            cumulative = 0
            for index, bucket_count in enumerate(self.counts):
                cumulative += bucket_count
                if cumulative >= target and bucket_count > 0:
                    lo = family.buckets[index - 1] if index > 0 else 0.0
                    hi = family.buckets[index] if index < len(family.buckets) \
                        else self.max
                    fraction = (target - (cumulative - bucket_count)) / bucket_count
                    estimate = lo + (hi - lo) * fraction
                    return min(max(estimate, self.min), self.max)
            return self.max

    def summary(self) -> Dict[str, float]:
        """Count, sum and the p50/p95/p99 estimates as one plain dict."""
        with self._family._lock:
            count, total = self.count, self.sum
        out = {"count": count, "sum": total}
        if count:
            out.update(p50=self.quantile(0.50), p95=self.quantile(0.95),
                       p99=self.quantile(0.99))
        return out


_CHILD_TYPES = {"counter": CounterChild, "gauge": GaugeChild,
                "histogram": HistogramChild}


class _Family:
    """One named metric family; fans out into labeled children."""

    def __init__(self, registry: "MetricsRegistry", kind: str, name: str,
                 help: str, labelnames: Tuple[str, ...],
                 buckets: Tuple[float, ...] = ()) -> None:
        self.registry = registry
        self.kind = kind
        self.name = _check_name(name)
        self.help = help
        self.labelnames = labelnames
        self.buckets = buckets
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], _Child] = {}
        if not labelnames:  # unlabeled: the family IS its single child
            self._default = self._child(())
        else:
            self._default = None

    def _child(self, labelvalues: Tuple[str, ...]) -> _Child:
        with self._lock:
            child = self._children.get(labelvalues)
            if child is None:
                child = _CHILD_TYPES[self.kind](self, labelvalues)
                self._children[labelvalues] = child
            return child

    def labels(self, **labels: str) -> _Child:
        """The child time series for one label-value combination."""
        if set(labels) != set(self.labelnames):
            raise ObservabilityError(
                f"metric {self.name} takes labels {self.labelnames},"
                f" got {tuple(sorted(labels))}"
            )
        return self._child(tuple(str(labels[k]) for k in self.labelnames))

    def children(self) -> List[_Child]:
        with self._lock:
            return list(self._children.values())

    # Unlabeled convenience: family proxies its single child's update API.
    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)  # type: ignore[union-attr]

    def set(self, value: float) -> None:
        self._default.set(value)  # type: ignore[union-attr]

    def dec(self, amount: float = 1.0) -> None:
        self._default.dec(amount)  # type: ignore[union-attr]

    def set_max(self, value: float) -> None:
        self._default.set_max(value)  # type: ignore[union-attr]

    def observe(self, value: float) -> None:
        self._default.observe(value)  # type: ignore[union-attr]

    def value(self) -> float:
        return self._default.value()  # type: ignore[union-attr]

    def quantile(self, q: float) -> float:
        return self._default.quantile(q)  # type: ignore[union-attr]

    def summary(self) -> Dict[str, float]:
        return self._default.summary()  # type: ignore[union-attr]


class Counter(_Family):
    """A monotonically increasing total (optionally labeled)."""

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: Tuple[str, ...]) -> None:
        super().__init__(registry, "counter", name, help, labelnames)


class Gauge(_Family):
    """A value that can go up and down (optionally labeled)."""

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: Tuple[str, ...]) -> None:
        super().__init__(registry, "gauge", name, help, labelnames)


class Histogram(_Family):
    """A distribution over fixed log-scale buckets with quantile estimation."""

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: Tuple[str, ...],
                 buckets: Optional[Sequence[float]] = None) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ObservabilityError("histogram buckets must be strictly increasing")
        super().__init__(registry, "histogram", name, help, labelnames, bounds)


class MetricsRegistry:
    """A named collection of metric families, exportable in one call.

    ``counter`` / ``gauge`` / ``histogram`` are *get-or-create*: asking for
    an existing name returns the existing family (so instrumented modules
    never need to coordinate creation order), but asking with a different
    kind or label set raises :class:`~repro.errors.ObservabilityError` —
    one name, one meaning.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: "Dict[str, _Family]" = {}

    def _get_or_create(self, kind: str, name: str, help: str,
                       labelnames: Iterable[str],
                       buckets: Optional[Sequence[float]] = None) -> _Family:
        names = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != names:
                    raise ObservabilityError(
                        f"metric {name} already registered as"
                        f" {family.kind}{family.labelnames}, not {kind}{names}"
                    )
                return family
            if kind == "counter":
                family = Counter(self, name, help, names)
            elif kind == "gauge":
                family = Gauge(self, name, help, names)
            else:
                family = Histogram(self, name, help, names, buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labelnames: Iterable[str] = ()) -> Counter:
        """Get or create a counter family."""
        return self._get_or_create("counter", name, help, labelnames)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "",
              labelnames: Iterable[str] = ()) -> Gauge:
        """Get or create a gauge family."""
        return self._get_or_create("gauge", name, help, labelnames)  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  labelnames: Iterable[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        """Get or create a histogram family."""
        return self._get_or_create("histogram", name, help, labelnames, buckets)  # type: ignore[return-value]

    def families(self) -> List[_Family]:
        """Every registered family, sorted by name."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        """Flat ``{series_name: value}`` dict of every time series.

        Counter/gauge series map to their value; histogram series map to
        their :meth:`HistogramChild.summary` dict.  Labeled series are keyed
        ``name{label="value"}`` in Prometheus spelling.
        """
        out: Dict[str, object] = {}
        for family in self.families():
            for child in family.children():
                key = family.name + _label_suffix(family.labelnames,
                                                  child.labelvalues)
                if family.kind == "histogram":
                    out[key] = child.summary()  # type: ignore[union-attr]
                else:
                    out[key] = child.value()  # type: ignore[union-attr]
        return out

    def to_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        lines: List[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for child in family.children():
                suffix = _label_suffix(family.labelnames, child.labelvalues)
                if family.kind != "histogram":
                    value = child.value()  # type: ignore[union-attr]
                    lines.append(f"{family.name}{suffix} {_format(value)}")
                    continue
                cumulative = 0
                bounds = [*family.buckets, math.inf]
                for bound, count in zip(bounds, child.counts):  # type: ignore[union-attr]
                    cumulative += count
                    le = "+Inf" if bound == math.inf else _format(bound)
                    label = _bucket_suffix(family.labelnames,
                                           child.labelvalues, le)
                    lines.append(f"{family.name}_bucket{label} {cumulative}")
                lines.append(f"{family.name}_sum{suffix}"
                             f" {_format(child.sum)}")  # type: ignore[union-attr]
                lines.append(f"{family.name}_count{suffix}"
                             f" {child.count}")  # type: ignore[union-attr]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self, indent: Optional[int] = None) -> str:
        """Machine-readable JSON dump (kind, help, labels, per-series data)."""
        dump: Dict[str, object] = {}
        for family in self.families():
            series = []
            for child in family.children():
                labels = dict(zip(family.labelnames, child.labelvalues))
                if family.kind == "histogram":
                    data: Dict[str, object] = child.summary()  # type: ignore[union-attr]
                    data["buckets"] = {
                        _format(bound): count
                        for bound, count in zip([*family.buckets, math.inf],
                                                child.counts)  # type: ignore[union-attr]
                        if count
                    }
                else:
                    data = {"value": child.value()}  # type: ignore[union-attr]
                series.append({"labels": labels, **data})
            dump[family.name] = {"kind": family.kind, "help": family.help,
                                 "series": series}
        return json.dumps(dump, indent=indent, sort_keys=True)


def _format(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _bucket_suffix(labelnames: Sequence[str], labelvalues: Sequence[str],
                   le: str) -> str:
    pairs = [f'{k}="{_escape_label(v)}"' for k, v in zip(labelnames, labelvalues)]
    pairs.append(f'le="{le}"')
    return "{" + ",".join(pairs) + "}"


#: The process-wide default registry (components with per-instance counters
#: construct their own; this one serves module-level instrumentation and
#: ad-hoc user metrics).
_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return _DEFAULT_REGISTRY
