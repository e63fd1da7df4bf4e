"""The multi-node store layer: one summary store, served as a fleet.

The paper's regeneration loop replicates *summaries*, never data — a
kilobyte-scale declarative summary regenerates an arbitrarily large
database on any node that holds it.  This package turns the single-node
disk store into that fleet:

* :class:`StoreBackend` — the protocol the serving layers type against;
  :class:`~repro.service.store.SummaryStore`, the disk store, is its
  reference implementation;
* :class:`ChangeLog` — the leader's append-only, fsynced, offset-indexed
  mutation journal (``log.jsonl`` segments);
* :class:`StoreServer` — a threaded HTTP leader serving entries, listings
  and the change log over versioned wire JSON;
* :class:`ReplicatedStore` — the follower backend: local replica reads,
  leader writes, change-log tailing with catch-up and gap-triggered full
  resync;
* :func:`open_store` — config-driven construction (``store_url=`` or a
  plain path).

``python -m repro store serve|replicate|status`` are the CLI doors;
``docs/CLUSTER.md`` describes topology, the change-log format and the
failure modes.
"""

from repro.cluster.backend import StoreBackend
from repro.cluster.factory import open_store
from repro.cluster.log import ChangeLog
from repro.cluster.replica import LeaderClient, ReplicatedStore
from repro.cluster.server import STORE_WIRE_VERSION, StoreServer

__all__ = [
    "STORE_WIRE_VERSION",
    "ChangeLog",
    "LeaderClient",
    "ReplicatedStore",
    "StoreBackend",
    "StoreServer",
    "open_store",
]
