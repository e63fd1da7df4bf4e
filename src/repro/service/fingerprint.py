"""Canonical fingerprints of regeneration requests.

A regeneration request is fully determined by the (anonymised) schema and the
client's cardinality constraints: two requests with the same fingerprint
produce the same database summary, so the fingerprint is the natural
content-address of the summary store and the dedup key of the serving
front-end.

The fingerprint must be *canonical*: semantically irrelevant presentation
details — attribute declaration order, constraint insertion order, the order
of a DNF predicate's conjuncts, constraint ``query_id`` provenance — must not
change it.  Everything here therefore serialises to a sorted, minimal JSON
form before hashing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.workload import ConstraintSet
from repro.predicates.conjunct import Conjunct
from repro.predicates.dnf import DNFPredicate
from repro.schema.schema import Schema

#: Bump when the canonical form changes; part of every fingerprint so stores
#: written under an older canonicalisation never alias new requests.
FINGERPRINT_VERSION = 1


# ---------------------------------------------------------------------- #
# canonical forms
# ---------------------------------------------------------------------- #
def _conjunct_form(conjunct: Conjunct) -> List[object]:
    """Sorted ``[attribute, [[lo, hi], ...]]`` pairs of one conjunct."""
    return [
        [attr, [[interval.lo, interval.hi] for interval in values.intervals]]
        for attr, values in sorted(conjunct.constraints.items())
    ]


def _predicate_form(predicate: DNFPredicate) -> List[object]:
    """Canonical form of a DNF predicate.

    Disjunction is commutative, so the conjuncts are sorted by their own
    canonical serialisation.
    """
    forms = [_conjunct_form(c) for c in predicate.conjuncts]
    return sorted(forms, key=lambda form: json.dumps(form, separators=(",", ":")))


def _constraint_form(cc: CardinalityConstraint) -> List[object]:
    """Canonical form of one CC.

    ``query_id`` and ``joined_relations`` are provenance: after the
    preprocessor rewrites the CC onto its root relation's view, only the
    relation, the predicate and the cardinality shape the LP.
    """
    return [cc.relation, _predicate_form(cc.predicate), int(cc.cardinality)]


def _schema_form(schema: Schema) -> List[object]:
    """Canonical form of a schema: relations and attributes sorted by name."""
    relations = []
    for rel in sorted(schema.relations, key=lambda r: r.name):
        relations.append([
            rel.name,
            rel.primary_key,
            int(rel.row_count),
            [[a.name, a.domain.lo, a.domain.hi]
             for a in sorted(rel.attributes, key=lambda a: a.name)],
            sorted([fk.column, fk.target] for fk in rel.foreign_keys),
        ])
    return relations


def _digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------- #
# public API
# ---------------------------------------------------------------------- #
def schema_fingerprint(schema: Schema) -> str:
    """Content hash of a schema, stable under declaration order."""
    return _digest(["schema", FINGERPRINT_VERSION, _schema_form(schema)])


def constraint_set_fingerprint(ccs: ConstraintSet) -> str:
    """Content hash of a constraint set, stable under insertion order."""
    forms = sorted(
        (_constraint_form(cc) for cc in ccs),
        key=lambda form: json.dumps(form, separators=(",", ":")),
    )
    return _digest(["ccs", FINGERPRINT_VERSION, forms])


def workload_fingerprint(schema: Schema, ccs: ConstraintSet,
                         relations: Optional[Sequence[str]] = None,
                         profile: Optional[Sequence[object]] = None) -> str:
    """Fingerprint of a full regeneration request.

    Combines the schema, the constraint set and the (optional) subset of
    relations to regenerate — the exact inputs of
    :meth:`~repro.hydra.pipeline.Hydra.build_summary`.

    ``profile`` names the result-affecting pipeline configuration (strategy,
    integrality, size/time limits — *not* performance knobs like worker
    counts): a store shared between differently-configured pipelines must
    never serve one's summary as the other's.  Pipelines pass their own
    profile via :meth:`~repro.hydra.pipeline.Hydra.request_fingerprint`.
    """
    return _digest([
        "request",
        FINGERPRINT_VERSION,
        _schema_form(schema),
        sorted(
            (_constraint_form(cc) for cc in ccs),
            key=lambda form: json.dumps(form, separators=(",", ":")),
        ),
        sorted(relations) if relations is not None else None,
        list(profile) if profile is not None else None,
    ])


# ---------------------------------------------------------------------- #
# component manifests
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ManifestDiff:
    """Component-level delta between two workload epochs.

    ``reused`` are components present in both manifests — an incremental
    build serves them from the component-solution cache with zero solves.
    ``added`` exist only in the new epoch (they must be solved); ``retired``
    exist only in the base epoch (their solutions are simply not used).
    """

    reused: List[str]
    added: List[str]
    retired: List[str]

    @property
    def total(self) -> int:
        """Component count of the *new* epoch."""
        return len(self.reused) + len(self.added)


def manifest_diff(base: Iterable[str], new: Iterable[str]) -> ManifestDiff:
    """Diff two component manifests into reused/added/retired keys."""
    base_set = set(base)
    new_set = set(new)
    return ManifestDiff(
        reused=sorted(base_set & new_set),
        added=sorted(new_set - base_set),
        retired=sorted(base_set - new_set),
    )
