"""Config-driven construction of the right store backend.

:func:`open_store` is the one place the serving layers decide which
:class:`~repro.cluster.backend.StoreBackend` a path + config pair means:

* no ``store_url`` → a plain local
  :class:`~repro.service.store.SummaryStore` (in a private temporary
  directory when the path is ``None``) — exactly the pre-cluster behavior;
* ``store_url=`` → a :class:`~repro.cluster.replica.ReplicatedStore`
  follower: local replica at the path, writes through the leader at the
  URL.

``RegenerationService`` (and so every ``Session``) calls this instead of
constructing ``SummaryStore`` directly, so it only ever sees the protocol.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.api.config import RegenConfig
from repro.cluster.replica import ReplicatedStore
from repro.obs.metrics import MetricsRegistry
from repro.service.store import SummaryStore


def open_store(root: Optional[Union[str, Path]] = None, *,
               config: Optional[RegenConfig] = None,
               registry: Optional[MetricsRegistry] = None):
    """Open the store backend the config asks for (see module docstring).

    ``root`` is the local directory — the store itself for a single-node
    backend, the replica for a follower.  Lifecycle caps
    (``max_store_bytes`` / ``max_entries`` / ``ttl_seconds``) are taken
    from the config and apply to the local side in both topologies.
    """
    config = config or RegenConfig()
    caps = {
        "max_store_bytes": config.max_store_bytes,
        "max_entries": config.max_entries,
        "ttl_seconds": config.ttl_seconds,
    }
    if config.store_url:
        return ReplicatedStore(config.store_url, root, registry=registry, **caps)
    return SummaryStore(root, registry=registry, **caps)
