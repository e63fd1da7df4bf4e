"""Content-addressed persistence for database summaries and LP solutions.

A :class:`SummaryStore` is the durable half of the serving scenario: one
process builds a summary (paying the LP solves), every other process — and
every later restart — serves it straight from disk.  Layout, rooted at the
store directory::

    <root>/
      store.json                      format marker {"format": 1}
      summaries/<fp[:2]>/<fp>.json.gz one entry per workload fingerprint
      summaries/<fp[:2]>/<fp>.touch   zero-byte recency marker (mtime = last use)
      components/<k[:2]>/<k>.json.gz  one entry per LP component solution
      components/<k[:2]>/<k>.touch    zero-byte recency marker

Entries are gzipped JSON written atomically (temp file + ``os.replace``), so
a crashed writer can never leave a half-visible entry, and concurrent writers
of the same content-addressed entry are idempotent.  Corrupted or partially
written files are detected on read (gzip CRC, JSON parse, payload shape and
fingerprint echo) and rejected with :class:`~repro.errors.SummaryStoreError`
on the strict path or treated as misses on the serving path.

Reads go through an LRU-bounded in-memory layer, so a serving process pays
the disk round-trip once per hot entry.  A store opened with ``root=None`` is
the same disk store in a private temporary directory (``repro-store-*``),
removed when the store is garbage-collected or the interpreter exits — the
way tests and storeless services ask for an ephemeral store.

Lifecycle: a store can be bounded with ``max_store_bytes`` / ``max_entries``
/ ``ttl_seconds``.  :meth:`compact` is the GC pass — it drops entries whose
last use is older than the TTL, then evicts strictly least-recently-used
entries until the store is back under its caps.  Recency is tracked in
zero-byte ``.touch`` sidecar files (their mtime is the last-used timestamp),
so every process mounting a shared store directory sees the same LRU order.
Entries :meth:`pin`-ned by a reader (e.g. an in-flight tuple stream) are
never expired or evicted while the pin is held.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
import shutil
import tempfile
import threading
import time
import weakref
from pathlib import Path
from typing import (TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional,
                    Tuple, Union)

import numpy as np

from repro.errors import SummaryStoreError
from repro.lp.model import LPSolution
from repro.lp.solver import LRUSolutionCache, SolutionCache
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span as trace_span, tracing_active
from repro.summary.relation_summary import DatabaseSummary

if TYPE_CHECKING:  # repro.api imports the service, which imports this module
    from repro.api.config import RegenConfig

logger = get_logger("service.store")

#: On-disk format version; bump on incompatible layout/payload changes.
STORE_FORMAT = 1

#: Default capacity of the in-memory summary layer of a store.
DEFAULT_MEMORY_ENTRIES = 64

#: Default capacity of the in-memory layer of :class:`StoreSolutionCache`.
DEFAULT_COMPONENT_MEMORY = 256

#: Suffix of the per-entry recency sidecar files.
TOUCH_SUFFIX = ".touch"

#: Sentinel distinguishing "use the store's configured value" from an
#: explicit ``None`` (= unlimited) override in :meth:`SummaryStore.compact`.
_UNSET = object()


def _decode_component(payload: Mapping[str, object]) -> LPSolution:
    """The :class:`LPSolution` of a component entry payload."""
    return LPSolution(
        values=np.asarray(payload["values"], dtype=np.int64),
        feasible=bool(payload["feasible"]),
        method=str(payload["method"]),
        max_violation=float(payload["max_violation"]),
        solve_seconds=0.0,
    )


class SummaryStore:
    """Persistent, content-addressed store of regeneration artefacts.

    Parameters
    ----------
    root:
        Store directory (created if missing), or ``None`` for a private
        temporary directory that is deleted with the store.
    memory_entries:
        Capacity of the in-memory summary layer.
    max_store_bytes:
        Total size cap (entry payload bytes, summaries + components).
        :meth:`compact` evicts LRU-first until the store fits; a fresh
        ``put_summary`` triggers an opportunistic compaction when the cap is
        exceeded.  ``None`` disables the cap.
    max_entries:
        Cap on the number of *summary* entries (components are bounded by
        ``max_store_bytes`` only).  ``None`` disables the cap.
    ttl_seconds:
        Entries whose last use is older than this are dropped by
        :meth:`compact`.  ``None`` disables expiration.
    registry:
        :class:`~repro.obs.metrics.MetricsRegistry` backing the store's
        ``repro_store_*`` metrics (hit/miss/corruption/GC counters, occupancy
        gauges, get/put/compact latency histograms).  A private registry is
        created when omitted; :meth:`counters` reads them.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None,
                 memory_entries: int = DEFAULT_MEMORY_ENTRIES,
                 max_store_bytes: Optional[int] = None,
                 max_entries: Optional[int] = None,
                 ttl_seconds: Optional[float] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        for name, value in (("max_store_bytes", max_store_bytes),
                            ("max_entries", max_entries),
                            ("ttl_seconds", ttl_seconds)):
            if value is not None and value < 0:
                raise SummaryStoreError(f"{name} must be non-negative (or None)")
        if root is None:
            root = tempfile.mkdtemp(prefix="repro-store-")
            weakref.finalize(self, shutil.rmtree, root, ignore_errors=True)
        self.root = Path(root)
        # Plain-string root for the per-read _touch fast path: building the
        # sidecar path with os.path.join is several times cheaper than three
        # chained pathlib joins, and _touch runs on every warm read.
        self._root_str = str(self.root)
        self.max_store_bytes = max_store_bytes
        self.max_entries = max_entries
        self.ttl_seconds = ttl_seconds
        self._summaries = LRUSolutionCache(memory_entries)
        self._metas: Dict[str, Dict[str, object]] = {}
        self._lock = threading.Lock()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._c_hits = self.registry.counter(
            "repro_store_summary_hits_total",
            "Summary reads served from memory or disk")
        self._c_misses = self.registry.counter(
            "repro_store_summary_misses_total",
            "Summary reads that found no usable entry")
        self._c_corrupt = self.registry.counter(
            "repro_store_corrupt_entries_total",
            "Entries rejected on read (gzip/JSON/shape validation)")
        self._c_evictions = self.registry.counter(
            "repro_store_evictions_total",
            "Entries removed by LRU eviction to the size/entry caps")
        self._c_expirations = self.registry.counter(
            "repro_store_expirations_total", "Entries removed by TTL expiry")
        self._g_bytes = self.registry.gauge(
            "repro_store_bytes", "Current payload bytes held by the store")
        self._g_entries = self.registry.gauge(
            "repro_store_entries", "Current entry counts by kind",
            labelnames=("kind",))
        self._h_get = self.registry.histogram(
            "repro_store_get_seconds", "Latency of get_summary calls")
        self._h_put = self.registry.histogram(
            "repro_store_put_seconds", "Latency of put_summary calls")
        self._h_compact = self.registry.histogram(
            "repro_store_compact_seconds", "Latency of compact (GC) passes")
        #: Refcounted pins: ``{fingerprint: count}``.  Pinned summaries are
        #: immune to TTL expiration and LRU eviction while the pin is held.
        self._pins: Dict[str, int] = {}
        # Running disk accounting, maintained by our own writes so the hot
        # paths never re-walk the directory tree.  Initialised with one scan
        # at open; writes by *other* processes after that are not reflected
        # until the store is reopened or compacted (monitoring data, not a
        # ledger).
        self._disk_bytes = 0
        self._disk_entries = {"summaries": 0, "components": 0}
        self.root.mkdir(parents=True, exist_ok=True)
        self._check_format()
        for kind in ("summaries", "components"):
            base = self.root / kind
            if base.is_dir():
                for path in base.glob("*/*.json.gz"):
                    self._disk_bytes += path.stat().st_size
                    self._disk_entries[kind] += 1

    # ------------------------------------------------------------------ #
    # layout helpers
    # ------------------------------------------------------------------ #
    def _check_format(self) -> None:
        marker = self.root / "store.json"
        if marker.exists():
            try:
                meta = json.loads(marker.read_text())
                found = int(meta["format"])
            except (ValueError, TypeError, KeyError) as error:
                raise SummaryStoreError(
                    f"store marker {marker} is unreadable: {error}"
                ) from error
            if found != STORE_FORMAT:
                raise SummaryStoreError(
                    f"store {self.root} has format {found}, expected {STORE_FORMAT}"
                )
            return
        self._atomic_write(marker, json.dumps({"format": STORE_FORMAT}).encode())

    def _entry_path(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.json.gz"

    def _touch_path(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / f"{key}{TOUCH_SUFFIX}"

    @staticmethod
    def _atomic_write(path: Path, payload: bytes) -> None:
        """Write ``payload`` so the file is either absent or complete."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _touch(self, kind: str, key: str, now: Optional[float] = None) -> None:
        """Record a use of ``(kind, key)`` in the entry's ``.touch`` sidecar,
        so every process mounting the store sees it."""
        stamp = time.time() if now is None else now
        # The update happens under the lock so a concurrent GC pass (whose
        # deletions re-check recency under the same lock) can never remove
        # an entry between its recency check and this utime.
        with self._lock:
            # Hot path: the sidecar exists for every entry this store wrote,
            # so build its path as a plain string (pathlib joins are ~4x the
            # cost of the utime itself) and fall back to the Path-based
            # creation branch only when utime fails.
            try:
                os.utime(os.path.join(self._root_str, kind, key[:2],
                                      key + TOUCH_SUFFIX), (stamp, stamp))
            except OSError:
                # No sidecar yet (legacy entry) — create one, but only for
                # an entry that actually exists: resurrecting a sidecar for
                # an entry another process evicted would leak orphan files.
                if not self._entry_path(kind, key).exists():
                    return
                touch = self._touch_path(kind, key)
                try:
                    touch.parent.mkdir(parents=True, exist_ok=True)
                    touch.touch()
                    os.utime(touch, (stamp, stamp))
                except OSError:  # pragma: no cover - recency is best-effort
                    pass

    def _last_used_at(self, kind: str, key: str) -> Optional[float]:
        """Best-effort last-use timestamp of an entry (``None`` if unknown)."""
        try:
            return self._touch_path(kind, key).stat().st_mtime
        except OSError:
            try:
                return self._entry_path(kind, key).stat().st_mtime
            except OSError:
                return None

    def _write_entry(self, kind: str, key: str, payload: Mapping[str, object]) -> None:
        blob = gzip.compress(
            json.dumps(payload, separators=(",", ":")).encode("utf-8")
        )
        path = self._entry_path(kind, key)
        with self._lock:
            try:
                previous = path.stat().st_size
            except OSError:
                previous = None
            self._atomic_write(path, blob)
            # Overwrites replace the old file: subtract its size so the
            # running byte counter never double-counts, and only a first
            # write counts as a new entry.
            self._disk_bytes += len(blob) - (previous or 0)
            if previous is None:
                self._disk_entries[kind] += 1
            # A write is a use: stamp the recency sidecar under the lock the
            # GC re-checks recency under, creating it on a first write.
            touch = os.path.join(self._root_str, kind, key[:2], key + TOUCH_SUFFIX)
            try:
                os.close(os.open(touch, os.O_WRONLY | os.O_CREAT, 0o644))
                stamp = time.time()
                os.utime(touch, (stamp, stamp))
            except OSError:  # pragma: no cover - recency is best-effort
                pass

    def _read_entry(self, kind: str, key: str) -> Dict[str, object]:
        """Strict read: raise :class:`SummaryStoreError` on anything that is
        not a complete, well-formed entry of the current format."""
        path = self._entry_path(kind, key)
        if not path.exists():
            raise SummaryStoreError(f"store has no {kind} entry {key}")
        try:
            payload = json.loads(gzip.decompress(path.read_bytes()).decode("utf-8"))
        except (OSError, EOFError, ValueError) as error:
            raise SummaryStoreError(
                f"{kind} entry {key} is corrupted or partially written: {error}"
            ) from error
        if not isinstance(payload, dict) or payload.get("format") != STORE_FORMAT \
                or payload.get("key") != key:
            raise SummaryStoreError(
                f"{kind} entry {key} has an unexpected payload shape or format"
            )
        return payload

    def _iter_keys(self, kind: str) -> Iterator[str]:
        base = self.root / kind
        if not base.is_dir():
            return
        for path in sorted(base.glob("*/*.json.gz")):
            yield path.name[: -len(".json.gz")]

    def component_keys(self) -> List[str]:
        """All stored LP component solution keys."""
        return sorted(self._iter_keys("components"))

    # ------------------------------------------------------------------ #
    # summaries
    # ------------------------------------------------------------------ #
    def put_summary(self, fingerprint: str, summary: DatabaseSummary,
                    meta: Optional[Mapping[str, object]] = None) -> None:
        """Persist a summary under its workload fingerprint."""
        started = time.perf_counter()
        if tracing_active():
            with trace_span("store.put", fingerprint=fingerprint[:12]):
                self._put_summary(fingerprint, summary, meta)
        else:
            self._put_summary(fingerprint, summary, meta)
        self._h_put.observe(time.perf_counter() - started)

    def _put_summary(self, fingerprint: str, summary: DatabaseSummary,
                     meta: Optional[Mapping[str, object]]) -> None:
        entry_meta = dict(meta or {})
        entry_meta.setdefault("total_rows", int(summary.total_rows()))
        entry_meta.setdefault("nbytes", int(summary.nbytes()))
        self._summaries.put(fingerprint, summary)
        with self._lock:
            self._metas[fingerprint] = entry_meta
        self._write_entry("summaries", fingerprint, {
            "format": STORE_FORMAT,
            "key": fingerprint,
            "meta": entry_meta,
            "summary": summary.to_dict(),
        })
        # Opportunistic GC: a store over its size caps compacts right after
        # the write that pushed it over (TTL-only stores are compacted by
        # the service's GC thread or an explicit compact()/CLI gc instead).
        # The fresh entry is pinned so churn can never evict what was just
        # written — strictly-LRU order among the *other* entries still holds.
        if self._over_size_caps():
            with self.pinned(fingerprint):
                self.compact()

    def get_summary(self, fingerprint: str) -> Optional[DatabaseSummary]:
        """Serving-path read: ``None`` on miss *and* on corrupted entries
        (counted in ``counters()['corrupt_entries']``), so callers fall back to a
        rebuild that overwrites the bad file."""
        started = time.perf_counter()
        if tracing_active():
            with trace_span("store.get", fingerprint=fingerprint[:12]) as span:
                summary = self._get_summary(fingerprint)
                span.set_attribute("hit", summary is not None)
        else:
            summary = self._get_summary(fingerprint)
        self._h_get.observe(time.perf_counter() - started)
        return summary

    def _get_summary(self, fingerprint: str) -> Optional[DatabaseSummary]:
        cached = self._summaries.get(fingerprint)
        if cached is not None:
            self._c_hits.inc()
            self._touch("summaries", fingerprint)
            return cached  # type: ignore[return-value]
        if not self._entry_path("summaries", fingerprint).exists():
            self._c_misses.inc()
            return None
        try:
            summary = self.read_summary(fingerprint)
        except SummaryStoreError as error:
            self._c_corrupt.inc()
            self._c_misses.inc()
            logger.warning("summary entry %s rejected on read: %s",
                           fingerprint[:12], error)
            return None
        self._c_hits.inc()
        return summary

    def read_summary(self, fingerprint: str) -> DatabaseSummary:
        """Strict read of one summary entry; raises on missing/corrupt."""
        payload = self._read_entry("summaries", fingerprint)
        try:
            summary = DatabaseSummary.from_dict(payload["summary"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError) as error:
            raise SummaryStoreError(
                f"summary entry {fingerprint} does not decode: {error}"
            ) from error
        self._summaries.put(fingerprint, summary)
        with self._lock:
            meta = payload.get("meta")
            if isinstance(meta, dict):
                self._metas[fingerprint] = meta
        self._touch("summaries", fingerprint)
        return summary

    def summary_meta(self, fingerprint: str) -> Optional[Dict[str, object]]:
        """Metadata of one summary entry, or ``None`` when absent.

        A pure peek like :meth:`has_summary`: reads the entry file when the
        meta is not already cached, but never refreshes recency."""
        with self._lock:
            meta = self._metas.get(fingerprint)
            if meta is not None:
                return dict(meta)
        if not self._entry_path("summaries", fingerprint).exists():
            return None
        try:
            payload = self._read_entry("summaries", fingerprint)
        except SummaryStoreError:
            return None
        meta = payload.get("meta")
        meta = dict(meta) if isinstance(meta, dict) else {}
        with self._lock:
            self._metas[fingerprint] = dict(meta)
        return meta

    def link_parent(self, fingerprint: str, parent: str) -> None:
        """Record epoch lineage: mark ``parent`` as the stored epoch
        ``fingerprint`` was incrementally derived from.

        Rewrites the entry with the updated metadata (atomically, like any
        other put).
        A no-op when the link is already recorded; raises
        :class:`SummaryStoreError` when ``fingerprint`` is not stored.
        """
        summary = self.get_summary(fingerprint)
        if summary is None:
            raise SummaryStoreError(
                f"cannot link lineage: store has no summary {fingerprint}"
            )
        meta = self.summary_meta(fingerprint) or {}
        if meta.get("parent_fingerprint") == parent:
            return
        meta["parent_fingerprint"] = parent
        self._put_summary(fingerprint, summary, meta)

    def parent_fingerprint(self, fingerprint: str) -> Optional[str]:
        """The parent epoch of a summary (``None`` for root epochs)."""
        meta = self.summary_meta(fingerprint)
        if meta is None:
            return None
        parent = meta.get("parent_fingerprint")
        return str(parent) if parent else None

    def list_lineage(self, fingerprint: str) -> List[Dict[str, object]]:
        """The epoch chain ending at ``fingerprint``, newest first.

        Follows ``parent_fingerprint`` links recorded in entry metadata
        (written by incremental builds — see
        :meth:`~repro.service.service.RegenerationService.resummarize`).
        Each element carries the entry's metadata plus ``fingerprint`` and
        ``present`` (``False`` for an ancestor that has since been removed,
        which also terminates the walk).  Cycles are broken defensively.
        """
        chain: List[Dict[str, object]] = []
        seen = set()
        current: Optional[str] = fingerprint
        while current is not None and current not in seen:
            seen.add(current)
            meta = self.summary_meta(current)
            entry: Dict[str, object] = {**(meta or {}), "fingerprint": current,
                                        "present": meta is not None}
            chain.append(entry)
            if meta is None:
                break
            parent = meta.get("parent_fingerprint")
            current = str(parent) if parent else None
        return chain

    def has_summary(self, fingerprint: str) -> bool:
        """``True`` when a summary entry exists.

        A pure peek: unlike :meth:`get_summary` it does not refresh the
        entry's recency.  Disk is the source of truth: an entry evicted
        (possibly by another process's GC) no longer exists even if a stale
        copy lingers in this process's memory layer."""
        return self._entry_path("summaries", fingerprint).exists()

    def summary_fingerprints(self) -> List[str]:
        """All stored workload fingerprints."""
        return list(self._iter_keys("summaries"))

    def entries(self) -> List[Dict[str, object]]:
        """Per-summary metadata for inspection tooling."""
        out: List[Dict[str, object]] = []
        for fingerprint in self.summary_fingerprints():
            with self._lock:
                meta = self._metas.get(fingerprint)
                pinned = fingerprint in self._pins
            if meta is None:
                try:
                    meta = self._read_entry("summaries", fingerprint).get("meta", {})
                except SummaryStoreError:
                    meta = {"corrupt": True}
            entry: Dict[str, object] = {"fingerprint": fingerprint, **(meta or {})}
            last_used = self._last_used_at("summaries", fingerprint)
            if last_used is not None:
                entry["last_used_at"] = round(last_used, 3)
            entry["pinned"] = pinned
            out.append(entry)
        return out

    # ------------------------------------------------------------------ #
    # pinning
    # ------------------------------------------------------------------ #
    def pin(self, fingerprint: str) -> None:
        """Protect a summary from expiration/eviction (refcounted)."""
        with self._lock:
            self._pins[fingerprint] = self._pins.get(fingerprint, 0) + 1

    def unpin(self, fingerprint: str) -> None:
        """Release one :meth:`pin` reference."""
        with self._lock:
            count = self._pins.get(fingerprint, 0) - 1
            if count > 0:
                self._pins[fingerprint] = count
            else:
                self._pins.pop(fingerprint, None)

    @contextlib.contextmanager
    def pinned(self, fingerprint: str) -> Iterator[None]:
        """Context manager holding a :meth:`pin` for the ``with`` body."""
        self.pin(fingerprint)
        try:
            yield
        finally:
            self.unpin(fingerprint)

    def pin_count(self, fingerprint: str) -> int:
        """Current number of pins held on ``fingerprint``."""
        with self._lock:
            return self._pins.get(fingerprint, 0)

    # ------------------------------------------------------------------ #
    # lifecycle: TTL expiration + LRU eviction
    # ------------------------------------------------------------------ #
    def _over_size_caps(self) -> bool:
        counters = self.counters()
        if self.max_entries is not None and counters["summaries"] > self.max_entries:
            return True
        return self.max_store_bytes is not None \
            and counters["store_bytes"] > self.max_store_bytes

    def _scan_candidates(self) -> List[Tuple[float, str, str, int]]:
        """Every entry as ``(last_used_at, kind, key, size)``, oldest first."""
        candidates: List[Tuple[float, str, str, int]] = []
        for kind in ("summaries", "components"):
            base = self.root / kind
            if not base.is_dir():
                continue
            for path in base.glob("*/*.json.gz"):
                key = path.name[: -len(".json.gz")]
                try:
                    size = path.stat().st_size
                except OSError:
                    continue  # raced with a concurrent deleter
                last_used = self._last_used_at(kind, key)
                candidates.append((last_used or 0.0, kind, key, size))
        candidates.sort()
        return candidates

    def _delete_entry(self, kind: str, key: str, size: int,
                      seen_last_used: Optional[float] = None) -> bool:
        """Remove one entry everywhere and keep the counters exact.

        ``seen_last_used`` is the recency the GC pass based its decision on:
        if the entry was touched (warm hit) or rewritten (rebuild) after the
        scan, the deletion is skipped — an entry that was just used or just
        paid for is never removed on a stale snapshot.  Holding the lock
        here serialises against this process's writers (``_write_entry`` and
        ``_touch`` update under the same lock); cross-process races shrink
        to the unlink itself.  Returns ``True`` when the entry was removed.
        """
        with self._lock:
            if seen_last_used is not None:
                try:
                    current = self._touch_path(kind, key).stat().st_mtime
                except OSError:
                    current = None
                if current is not None and current > seen_last_used + 1e-6:
                    return False  # used/rebuilt since the scan: keep it
            removed = True
            try:
                os.unlink(self._entry_path(kind, key))
            except FileNotFoundError:
                removed = False  # another process already dropped it
            except OSError:
                return False  # file may still exist: leave the ledger
            try:
                os.unlink(self._touch_path(kind, key))
            except OSError:
                pass
            if removed:
                self._disk_bytes -= size
                self._disk_entries[kind] -= 1
            if kind == "summaries":
                self._metas.pop(key, None)
        if kind == "summaries":
            self._summaries.pop(key)
        return True

    def _sweep_orphan_touches(self) -> None:
        """Drop recency sidecars whose entry file no longer exists (e.g.
        evicted by another process) so a shared store never accumulates
        orphan touch files."""
        for kind in ("summaries", "components"):
            base = self.root / kind
            if not base.is_dir():
                continue
            for touch in base.glob(f"*/*{TOUCH_SUFFIX}"):
                entry = touch.with_name(
                    touch.name[: -len(TOUCH_SUFFIX)] + ".json.gz"
                )
                if not entry.exists():
                    try:
                        os.unlink(touch)
                    except OSError:  # pragma: no cover - racing writer wins
                        pass

    def _resync_disk_counters(self) -> None:
        """Re-derive the running disk counters from the directory tree.

        Called at the end of every :meth:`compact` pass, so concurrent
        writes/deletes by *other* processes are folded back in and the
        counters stay exact — the GC pass is the one place already paying a
        directory scan."""
        total = 0
        entries = {"summaries": 0, "components": 0}
        for kind in ("summaries", "components"):
            base = self.root / kind
            if not base.is_dir():
                continue
            for path in base.glob("*/*.json.gz"):
                try:
                    total += path.stat().st_size
                except OSError:
                    continue
                entries[kind] += 1
        with self._lock:
            self._disk_bytes = total
            self._disk_entries = entries

    def compact(self, max_store_bytes: object = _UNSET,
                max_entries: object = _UNSET,
                ttl_seconds: object = _UNSET,
                now: Optional[float] = None) -> Dict[str, int]:
        """One GC pass: TTL expiration, then strictly-LRU eviction to caps.

        The arguments override the store's configured limits for this pass
        only (pass ``None`` explicitly for "unlimited").  Pinned summaries
        are never removed.  Deletions are crash-safe — each entry file is
        unlinked atomically and the running byte/entry counters are adjusted
        exactly once per removed file — and cheap relative to builds: one
        directory scan per pass, none on the serving hot path.

        Returns a report: entries ``expired`` (TTL), ``evicted`` (caps),
        ``reclaimed_bytes``, and the post-compaction occupancy.
        """
        started = time.perf_counter()
        with trace_span("store.compact") as span:
            report = self._compact(max_store_bytes, max_entries, ttl_seconds, now)
            span.set_attribute("expired", report["expired"])
            span.set_attribute("evicted", report["evicted"])
        self._h_compact.observe(time.perf_counter() - started)
        if report["expired"] or report["evicted"]:
            logger.info("compacted store: expired=%d evicted=%d reclaimed=%dB",
                        report["expired"], report["evicted"],
                        report["reclaimed_bytes"])
        return report

    def _compact(self, max_store_bytes: object, max_entries: object,
                 ttl_seconds: object, now: Optional[float]) -> Dict[str, int]:
        byte_cap = self.max_store_bytes if max_store_bytes is _UNSET else max_store_bytes
        entry_cap = self.max_entries if max_entries is _UNSET else max_entries
        ttl = self.ttl_seconds if ttl_seconds is _UNSET else ttl_seconds
        stamp = time.time() if now is None else now
        with self._lock:
            pinned = set(self._pins)
        # Lineage protection: the ancestors of every pinned (live) epoch are
        # kept too, so a session can always diff a live epoch against the
        # parents it was incrementally derived from.  Unpinned chains age out
        # normally.
        protected = set(pinned)
        for fingerprint in pinned:
            for link in self.list_lineage(fingerprint)[1:]:
                protected.add(str(link["fingerprint"]))
        candidates = self._scan_candidates()
        expired = evicted = reclaimed = 0
        survivors: List[Tuple[float, str, str, int]] = []
        for last_used, kind, key, size in candidates:
            if kind == "summaries" and key in protected:
                survivors.append((last_used, kind, key, size))
                continue
            if ttl is not None and stamp - last_used > ttl \
                    and self._delete_entry(kind, key, size,
                                           seen_last_used=last_used):
                expired += 1
                reclaimed += size
            else:
                survivors.append((last_used, kind, key, size))
        total_bytes = sum(size for _, _, _, size in survivors)
        summary_count = sum(1 for _, kind, _, _ in survivors if kind == "summaries")
        for last_used, kind, key, size in survivors:  # oldest first
            over_bytes = byte_cap is not None and total_bytes > byte_cap
            over_entries = entry_cap is not None and summary_count > entry_cap
            if not over_bytes and not over_entries:
                break
            if kind == "summaries" and key in protected:
                continue
            if kind == "components" and not over_bytes:
                continue  # components only count toward the byte cap
            if not self._delete_entry(kind, key, size, seen_last_used=last_used):
                continue  # touched since the scan: no longer LRU, keep it
            evicted += 1
            reclaimed += size
            total_bytes -= size
            if kind == "summaries":
                summary_count -= 1
        self._sweep_orphan_touches()
        self._resync_disk_counters()
        self._c_expirations.inc(expired)
        self._c_evictions.inc(evicted)
        report = {"expired": expired, "evicted": evicted,
                  "reclaimed_bytes": reclaimed}
        report.update(self.counters())
        return report

    # ------------------------------------------------------------------ #
    # LP component solutions
    # ------------------------------------------------------------------ #
    def put_component(self, key: str, solution: LPSolution) -> None:
        """Persist one LP component solution under its canonical key."""
        self._write_entry("components", key, {
            "format": STORE_FORMAT,
            "key": key,
            "values": [int(v) for v in solution.values],
            "feasible": bool(solution.feasible),
            "method": solution.method,
            "max_violation": float(solution.max_violation),
        })

    def get_component(self, key: str) -> Optional[LPSolution]:
        """Read one component solution; ``None`` on miss or corruption."""
        if not self._entry_path("components", key).exists():
            return None
        try:
            solution = _decode_component(self._read_entry("components", key))
        except (SummaryStoreError, KeyError, TypeError, ValueError) as error:
            self._c_corrupt.inc()
            logger.warning("component entry %s rejected on read: %s",
                           key[:12], error)
            return None
        self._touch("components", key)
        return solution

    def solution_cache(self, memory_size: int = DEFAULT_COMPONENT_MEMORY) -> "StoreSolutionCache":
        """A solver cache backend persisting through this store.

        The memory layer is never disabled (a ``memory_size`` below one
        still gets a one-entry hot layer in front of the files).
        """
        return StoreSolutionCache(self, memory_size=max(1, memory_size))

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def store_bytes(self) -> int:
        """Total bytes of all entry files (gzip sizes on disk).

        Served from the running counters — no directory walk; bytes written
        by other processes appear after reopening or compacting the store.
        """
        with self._lock:
            return self._disk_bytes

    def counters(self) -> Dict[str, int]:
        """Hit/miss/corruption/GC counters plus current occupancy."""
        with self._lock:
            summaries = self._disk_entries["summaries"]
            components = self._disk_entries["components"]
            occupancy = self._disk_bytes
        self._g_bytes.set(occupancy)
        self._g_entries.labels(kind="summaries").set(summaries)
        self._g_entries.labels(kind="components").set(components)
        return {
            "summary_hits": int(self._c_hits.value()),
            "summary_misses": int(self._c_misses.value()),
            "corrupt_entries": int(self._c_corrupt.value()),
            "evictions": int(self._c_evictions.value()),
            "expirations": int(self._c_expirations.value()),
            "summaries": summaries,
            "components": components,
            "store_bytes": occupancy,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SummaryStore({str(self.root)!r},"
                f" {len(self.summary_fingerprints())} summaries)")


class StoreSolutionCache(SolutionCache):
    """Two-level LP solution cache: in-memory LRU over a summary store.

    Plugs into :class:`~repro.lp.solver.ParallelLPSolver` as ``cache_backend``
    so component solutions survive restarts and are shared across every
    process that mounts the same store directory.
    """

    def __init__(self, store: SummaryStore,
                 memory_size: int = DEFAULT_COMPONENT_MEMORY) -> None:
        self.store = store
        self.capacity = memory_size
        self._memory = LRUSolutionCache(memory_size)

    def get(self, key: str) -> Optional[LPSolution]:
        cached = self._memory.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        solution = self.store.get_component(key)
        if solution is not None:
            self._memory.put(key, solution)
        return solution

    def put(self, key: str, solution: LPSolution) -> None:
        self._memory.put(key, solution)
        self.store.put_component(key, solution)

    def clear(self) -> None:
        # Only the in-memory layer is dropped; the persistent entries are the
        # shared source of truth and stay available to other processes.
        self._memory.clear()

    def __len__(self) -> int:
        return len(self._memory)


def open_store(root: Optional[Union[str, Path]] = None, *,
               config: Optional["RegenConfig"] = None,
               registry: Optional[MetricsRegistry] = None) -> SummaryStore:
    """The store a path + config pair means: a :class:`SummaryStore` at
    ``root`` (a private temporary directory when ``None``) bounded by the
    config's lifecycle caps."""
    if config is None:
        return SummaryStore(root, registry=registry)
    return SummaryStore(root, registry=registry,
                        max_store_bytes=config.max_store_bytes,
                        max_entries=config.max_entries,
                        ttl_seconds=config.ttl_seconds)
