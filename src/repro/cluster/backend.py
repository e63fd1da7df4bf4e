"""The store-backend protocol.

:class:`StoreBackend` is the contract extracted from
:class:`~repro.service.store.SummaryStore`: everything the
:class:`~repro.api.Session` facade, the
:class:`~repro.service.RegenerationService` and the LP solver cache actually
call — get/put/has/entries/delete/pin for ``summaries`` and ``components``,
plus lifecycle (``compact``) and telemetry (``counters``).  The serving
layers type against this protocol only; ``SummaryStore`` (the disk store)
and :class:`~repro.cluster.replica.ReplicatedStore` (a follower) are its
two implementations.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, ContextManager, Dict, List, Mapping,
                    Optional, Protocol, runtime_checkable)

from repro.service.store import STORE_FORMAT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lp.model import LPSolution
    from repro.lp.solver import SolutionCache
    from repro.summary.relation_summary import DatabaseSummary

__all__ = ["StoreBackend", "STORE_FORMAT"]


@runtime_checkable
class StoreBackend(Protocol):
    """What a summary-store backend must provide to the serving layers.

    The contract is verified for every implementation by the parametrized
    conformance suite in ``tests/test_store_backend.py``; implementations
    are duck-typed (``@runtime_checkable`` checks method presence only).
    """

    # -- summaries ----------------------------------------------------- #
    def put_summary(self, fingerprint: str, summary: "DatabaseSummary",
                    meta: Optional[Mapping[str, object]] = None) -> None: ...

    def get_summary(self, fingerprint: str) -> Optional["DatabaseSummary"]: ...

    def read_summary(self, fingerprint: str) -> "DatabaseSummary": ...

    def has_summary(self, fingerprint: str) -> bool: ...

    def summary_fingerprints(self) -> List[str]: ...

    def entries(self) -> List[Dict[str, object]]: ...

    # -- LP component solutions ---------------------------------------- #
    def put_component(self, key: str, solution: "LPSolution") -> None: ...

    def get_component(self, key: str) -> Optional["LPSolution"]: ...

    def component_keys(self) -> List[str]: ...

    def solution_cache(self, memory_size: int = ...) -> "SolutionCache": ...

    # -- deletion / pinning / lifecycle -------------------------------- #
    def delete_entry(self, kind: str, key: str) -> bool: ...

    def pin(self, fingerprint: str) -> None: ...

    def unpin(self, fingerprint: str) -> None: ...

    def pinned(self, fingerprint: str) -> ContextManager[None]: ...

    def pin_count(self, fingerprint: str) -> int: ...

    def compact(self, max_store_bytes: object = ...,
                max_entries: object = ...,
                ttl_seconds: object = ...,
                now: Optional[float] = None) -> Dict[str, int]: ...

    # -- telemetry ----------------------------------------------------- #
    def counters(self) -> Dict[str, int]: ...

    def store_bytes(self) -> int: ...
