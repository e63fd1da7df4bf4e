"""HTTP serving front-end: :class:`RegenerationServer` over a real socket.

The package splits into the request kernel every repro HTTP server is
mounted on (:mod:`repro.server.kernel`), the serving front-end's routes and
endpoints (:mod:`repro.server.http`) and the wire formats it speaks
(:mod:`repro.server.wire`): the JSON workload encoding whose round trip is
fingerprint-exact, and the per-row NDJSON tuple encoding whose sharded
concatenation is byte-identical to the whole relation (defined by a
per-``Table`` reference encoder, produced on the stream path by
``ndjson_encoder`` straight from the summary's runs).
``python -m repro serve --listen HOST:PORT`` is the CLI door.
"""

from repro.server.http import (
    NDJSON_CONTENT_TYPE,
    PARENT_SPAN_HEADER,
    TRACE_HEADER,
    RegenerationServer,
)
from repro.server.wire import (
    WIRE_VERSION,
    RequestTooLargeError,
    WireFormatError,
    constraint_set_from_wire,
    constraint_set_to_wire,
    ndjson_batch,
    ndjson_encoder,
    parse_shard,
    shard_bounds,
)

__all__ = [
    "NDJSON_CONTENT_TYPE",
    "PARENT_SPAN_HEADER",
    "TRACE_HEADER",
    "RegenerationServer",
    "WIRE_VERSION",
    "RequestTooLargeError",
    "WireFormatError",
    "constraint_set_from_wire",
    "constraint_set_to_wire",
    "ndjson_batch",
    "ndjson_encoder",
    "parse_shard",
    "shard_bounds",
]
