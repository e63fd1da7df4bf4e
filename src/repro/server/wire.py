"""Wire formats of the HTTP serving front-end.

Two encodings live here, both deliberately boring JSON so any HTTP client
(curl included) can speak them:

* **workload wire form** — a :class:`~repro.constraints.workload.ConstraintSet`
  as one JSON object (``constraint_set_to_wire`` /
  ``constraint_set_from_wire``).  The round trip is *fingerprint-exact*: a
  workload posted over the wire resolves to the same store fingerprint as the
  in-process original, so a cold HTTP client and a warm CLI process dedup
  onto the same summary.
* **NDJSON tuple batches** — :func:`ndjson_batch` renders one streamed
  :class:`~repro.engine.table.Table` batch as newline-delimited JSON rows,
  one object per tuple, keys in column order, compact separators.  The
  encoding is strictly *per-row*, so the concatenation of any sharding of a
  relation is byte-identical to the encoding of the materialised whole —
  the contract the protocol test suite locks down.  :func:`ndjson_batch`
  *defines* the format; :func:`ndjson_encoder` is what the stream endpoint
  *runs*: the same bytes, produced from the relation summary's runs.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.workload import ConstraintSet
from repro.engine.table import Table
from repro.errors import ServiceError
from repro.predicates.conjunct import Conjunct
from repro.predicates.dnf import DNFPredicate
from repro.predicates.interval import Interval, IntervalSet
from repro.tuplegen.generator import TupleGenerator

#: Version tag of the workload wire form; bump on incompatible changes.
WIRE_VERSION = 1


class WireFormatError(ServiceError):
    """A request payload does not parse as the documented wire form."""


class RequestTooLargeError(WireFormatError):
    """A request body exceeds the server's ``max_request_bytes`` cap.

    Mapped to HTTP **413** (the other wire-format failures map to 400), so
    one oversized client can never balloon server memory."""


# ---------------------------------------------------------------------- #
# workload wire form
# ---------------------------------------------------------------------- #
def _predicate_to_wire(predicate: DNFPredicate) -> List[Dict[str, List[List[int]]]]:
    """A DNF predicate as a list of conjunct objects.

    Each conjunct maps attribute name to a list of ``[lo, hi)`` interval
    pairs; the always-true predicate is one empty conjunct object, the
    always-false predicate an empty list.
    """
    wire = []
    for conjunct in predicate.conjuncts:
        wire.append({
            attribute: [[interval.lo, interval.hi]
                        for interval in values.intervals]
            for attribute, values in conjunct.constraints.items()
        })
    return wire


def _predicate_from_wire(wire: object) -> DNFPredicate:
    if not isinstance(wire, list):
        raise WireFormatError("predicate must be a list of conjunct objects")
    conjuncts = []
    for entry in wire:
        if not isinstance(entry, Mapping):
            raise WireFormatError("each conjunct must be an object mapping"
                                  " attribute to [lo, hi) pairs")
        constraints: Dict[str, IntervalSet] = {}
        for attribute, pairs in entry.items():
            if not isinstance(pairs, list):
                raise WireFormatError(
                    f"attribute {attribute!r} must map to a list of"
                    " [lo, hi) pairs")
            try:
                intervals = [Interval(int(lo), int(hi)) for lo, hi in pairs]
            except (TypeError, ValueError) as error:
                raise WireFormatError(
                    f"bad interval list for attribute {attribute!r}: {error}"
                ) from None
            constraints[str(attribute)] = IntervalSet(intervals)
        conjuncts.append(Conjunct(constraints))
    return DNFPredicate(conjuncts)


def constraint_set_to_wire(ccs: ConstraintSet) -> Dict[str, object]:
    """Encode a constraint set as the JSON-serialisable wire object."""
    constraints = []
    for cc in ccs:
        entry: Dict[str, object] = {
            "relation": cc.relation,
            "predicate": _predicate_to_wire(cc.predicate),
            "cardinality": int(cc.cardinality),
        }
        if cc.joined_relations != (cc.relation,):
            entry["joined_relations"] = list(cc.joined_relations)
        if cc.query_id is not None:
            entry["query_id"] = cc.query_id
        constraints.append(entry)
    return {"version": WIRE_VERSION, "name": ccs.name,
            "constraints": constraints}


def constraint_set_from_wire(payload: object) -> ConstraintSet:
    """Decode the wire object back into a :class:`ConstraintSet`.

    Raises :class:`WireFormatError` (a :class:`~repro.errors.ServiceError`)
    on any shape violation, which the HTTP front-end maps to a 400.
    """
    if not isinstance(payload, Mapping):
        raise WireFormatError("workload must be a JSON object")
    version = payload.get("version", WIRE_VERSION)
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported workload wire version {version!r};"
            f" this server speaks version {WIRE_VERSION}")
    entries = payload.get("constraints")
    if not isinstance(entries, list):
        raise WireFormatError("workload needs a 'constraints' list")
    ccs = ConstraintSet(name=str(payload.get("name", "wire-ccs")))
    for entry in entries:
        if not isinstance(entry, Mapping):
            raise WireFormatError("each constraint must be a JSON object")
        try:
            relation = str(entry["relation"])
            cardinality = int(entry["cardinality"])
        except (KeyError, TypeError, ValueError) as error:
            raise WireFormatError(f"bad constraint entry: {error}") from None
        joined = entry.get("joined_relations")
        query_id = entry.get("query_id")
        ccs.add(CardinalityConstraint(
            relation=relation,
            predicate=_predicate_from_wire(entry.get("predicate", [])),
            cardinality=cardinality,
            joined_relations=tuple(str(r) for r in joined) if joined else (),
            query_id=str(query_id) if query_id is not None else None,
        ))
    return ccs


# ---------------------------------------------------------------------- #
# NDJSON tuple batches
# ---------------------------------------------------------------------- #
def ndjson_batch(table: Table) -> bytes:
    """One streamed batch as newline-delimited JSON rows (UTF-8 bytes).

    One object per tuple, keys in the table's column order, compact
    separators, ``\\n`` after every row.  Because the encoding never looks
    across row boundaries, concatenating the encodings of any contiguous
    sharding of a relation reproduces the encoding of the whole relation
    byte for byte.
    """
    names = table.column_names
    if table.num_rows == 0:
        return b""
    rows = zip(*(table.column(name).tolist() for name in names))
    lines = [json.dumps(dict(zip(names, row)), separators=(",", ":"))
             for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def ndjson_encoder(generator: TupleGenerator) -> Callable[[int, int], bytes]:
    """:func:`ndjson_batch` of a generated relation, encoded from its summary.

    A generated tuple's line is ``{"<pk>":`` + its row number + text that
    depends only on its summary row (``,"c1":v1,…}\n``).  Both pieces are
    encoded here, once per relation — names through ``json.dumps``, so
    escaping is the reference encoder's — and the returned ``batch(start,
    stop)`` is then, for each run of :meth:`TupleGenerator.run_window`, the
    run's row numbers joined by ``suffix + prefix``: work proportional to the
    digits written plus the summary rows touched, with no :class:`Table` and
    no per-tuple object.  ``batch(start, stop)`` equals the reference
    encoding of ``generator._batch(start, stop)`` byte for byte (``start..
    stop`` 1-based, inclusive, within the relation); the property suite
    holds it to that.
    """
    summary = generator.summary
    run_window = generator.run_window
    prefix = "{" + json.dumps(summary.primary_key) + ":"
    names = ["," + json.dumps(column) + ":" for column in summary.columns]
    suffixes = [
        "".join(name + str(int(value)) for name, value in zip(names, values))
        + "}\n"
        for values, _ in summary.rows]
    joints = [suffix + prefix for suffix in suffixes]

    def batch(start: int, stop: int) -> bytes:
        first, repeats = run_window(start, stop)
        parts: List[str] = []
        key = start
        for row, count in enumerate(repeats.tolist(), first):
            if count:
                parts += (prefix,
                          joints[row].join(map(str, range(key, key + count))),
                          suffixes[row])
                key += count
        return "".join(parts).encode("utf-8")

    return batch


def shard_bounds(total_rows: int, index: int, count: int) -> Tuple[int, Optional[int]]:
    """The 1-based inclusive row range of shard ``index`` of ``count``.

    Shards are contiguous, near-equal and cover ``1..total_rows`` exactly:
    concatenating shards ``1..count`` in order reproduces the full relation.
    ``index`` is 1-based (matching the ``?shard=i/n`` query form).
    """
    if count < 1 or not 1 <= index <= count:
        raise WireFormatError(
            f"bad shard {index}/{count}: want 1 <= index <= count")
    start = (index - 1) * total_rows // count + 1
    stop = index * total_rows // count
    return start, stop


def parse_shard(spec: str) -> Tuple[int, int]:
    """Parse the ``i/n`` shard query parameter into ``(index, count)``."""
    try:
        index_text, count_text = spec.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise WireFormatError(
            f"bad shard spec {spec!r}: want the form 'i/n'") from None
    if count < 1 or not 1 <= index <= count:
        raise WireFormatError(
            f"bad shard {spec!r}: want 1 <= i <= n")
    return index, count
