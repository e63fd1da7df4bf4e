"""Relation summaries and the database summary (Section 5.4).

A relation summary ``R~`` keeps, for each distinct value combination of the
relation's non-key attributes and foreign keys, the number of tuples carrying
that combination.  Primary-key values are implicit: they are the row numbers
``1..N`` of the regenerated relation, so a summary of a handful of rows can
describe a relation of billions of tuples — the property that makes dynamic
regeneration possible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Tuple

from repro.errors import SummaryError
from repro.schema.schema import Schema
from repro.summary.view_summary import ViewSummary
from repro.views.viewdef import ViewSet


@dataclass
class RelationSummary:
    """The summary of one relation.

    Attributes
    ----------
    relation:
        Relation name.
    primary_key:
        Name of the implicit primary-key column (values are row numbers).
    columns:
        The explicit columns: foreign keys first, then non-key attributes.
    rows:
        ``(values, num_tuples)`` pairs; ``values`` is aligned with
        ``columns``.
    """

    relation: str
    primary_key: str
    columns: Tuple[str, ...]
    rows: List[Tuple[Tuple[int, ...], int]] = field(default_factory=list)

    def total_rows(self) -> int:
        """Number of tuples the summary expands to."""
        return sum(count for _, count in self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def prefix_counts(self) -> List[int]:
        """Cumulative tuple counts per summary row (inclusive)."""
        out: List[int] = []
        running = 0
        for _, count in self.rows:
            running += count
            out.append(running)
        return out

    def column_index(self, column: str) -> int:
        """Position of a column within the value tuples."""
        try:
            return self.columns.index(column)
        except ValueError:
            raise SummaryError(
                f"relation summary {self.relation!r} has no column {column!r}"
            ) from None

    def nbytes(self) -> int:
        """Approximate size of the summary (8 bytes per stored integer)."""
        width = len(self.columns) + 1
        return 8 * width * len(self.rows)

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-serialisable representation.

        Values are coerced to plain ``int`` — summary rows built from numpy
        arrays may carry ``np.int64`` scalars, which ``json`` rejects.
        """
        return {
            "relation": self.relation,
            "primary_key": self.primary_key,
            "columns": list(self.columns),
            "rows": [[[int(v) for v in values], int(count)] for values, count in self.rows],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RelationSummary":
        """Rebuild a summary from :meth:`to_dict` output."""
        return cls(
            relation=str(data["relation"]),
            primary_key=str(data["primary_key"]),
            columns=tuple(data["columns"]),  # type: ignore[arg-type]
            rows=[(tuple(values), int(count)) for values, count in data["rows"]],  # type: ignore[misc]
        )


@dataclass
class DatabaseSummary:
    """The complete database summary: one relation summary per relation plus
    diagnostics gathered while building it.

    ``component_keys`` is build provenance: for each relation, the canonical
    keys (``lp.decompose.component_key``) of the constraint-graph components
    whose solutions produced that relation's piece of the summary.  It is the
    unit of incremental work — two epochs sharing a key reused the same
    cached component solution verbatim (see ``docs/INCREMENTAL.md``).
    """

    relations: Dict[str, RelationSummary] = field(default_factory=dict)
    extra_tuples: Dict[str, int] = field(default_factory=dict)
    lp_variable_counts: Dict[str, int] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    component_keys: Dict[str, List[str]] = field(default_factory=dict)

    def component_manifest(self) -> List[str]:
        """Sorted union of all component keys across relations."""
        manifest = set()
        for keys in self.component_keys.values():
            manifest.update(keys)
        return sorted(manifest)

    def content_dict(self) -> Dict[str, object]:
        """:meth:`to_dict` without the wall-clock ``timings``.

        This is the summary's *result content*: two builds that produced the
        same summary (e.g. a cold build and an incremental rebuild of the
        same drifted workload) have byte-identical content dicts even though
        their build timings differ.
        """
        data = self.to_dict()
        data.pop("timings", None)
        return data

    def content_digest(self) -> str:
        """sha256 hex digest of :meth:`content_dict` (canonical JSON)."""
        import hashlib

        text = json.dumps(self.content_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def relation(self, name: str) -> RelationSummary:
        """Return the summary of one relation."""
        try:
            return self.relations[name]
        except KeyError:
            raise SummaryError(f"no summary for relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def total_rows(self) -> int:
        """Total number of tuples across all regenerated relations."""
        return sum(summary.total_rows() for summary in self.relations.values())

    def nbytes(self) -> int:
        """Approximate size of the whole summary in bytes."""
        return sum(summary.nbytes() for summary in self.relations.values())

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-serialisable representation."""
        return {
            "relations": {name: summary.to_dict() for name, summary in self.relations.items()},
            "extra_tuples": {name: int(v) for name, v in self.extra_tuples.items()},
            "lp_variable_counts": {name: int(v) for name, v in self.lp_variable_counts.items()},
            "timings": {name: float(v) for name, v in self.timings.items()},
            "component_keys": {
                name: [str(k) for k in keys]
                for name, keys in self.component_keys.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "DatabaseSummary":
        """Rebuild a database summary from :meth:`to_dict` output."""
        return cls(
            relations={
                name: RelationSummary.from_dict(rel)  # type: ignore[arg-type]
                for name, rel in dict(data.get("relations", {})).items()
            },
            extra_tuples=dict(data.get("extra_tuples", {})),  # type: ignore[arg-type]
            lp_variable_counts=dict(data.get("lp_variable_counts", {})),  # type: ignore[arg-type]
            timings=dict(data.get("timings", {})),  # type: ignore[arg-type]
            component_keys={
                name: list(keys)
                for name, keys in dict(data.get("component_keys", {})).items()  # type: ignore[union-attr]
            },
        )

    def save(self, path: Path) -> None:
        """Write the summary to a JSON file."""
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: Path) -> "DatabaseSummary":
        """Load a summary previously written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))


def build_relation_summary(relation: str, view_summaries: Mapping[str, ViewSummary],
                           views: ViewSet, schema: Schema) -> RelationSummary:
    """Extract one relation's summary from the (consistent) view summaries.

    Foreign-key values are synthesised as described in the paper: for each
    child row, project it onto the referenced view's attributes, locate that
    combination in the referenced view summary and use the cumulative tuple
    count up to (and including) that row as the key value — i.e. the last
    primary key of the referenced block, every tuple of which carries exactly
    the projected attribute values.
    """
    rel = schema.relation(relation)
    view = views.view(relation)
    view_summary = view_summaries[relation]

    fk_columns = tuple(fk.column for fk in rel.foreign_keys)
    attr_columns = tuple(rel.attribute_names)
    columns = fk_columns + attr_columns

    # Pre-compute lookup structures for every referenced view.
    lookups: Dict[str, Tuple[Dict[Tuple[int, ...], int], List[int], Tuple[str, ...]]] = {}
    for fk in rel.foreign_keys:
        target_summary = view_summaries.get(fk.target)
        if target_summary is None:
            raise SummaryError(
                f"relation {relation!r} references {fk.target!r} which has no view summary"
            )
        lookups[fk.target] = (
            target_summary.value_index(),
            target_summary.prefix_counts(),
            views.view(fk.target).attributes,
        )

    summary = RelationSummary(relation=relation, primary_key=rel.primary_key, columns=columns)
    attr_positions = [view_summary.attribute_index(a) for a in attr_columns]

    for values, count in view_summary.rows:
        fk_values: List[int] = []
        for fk in rel.foreign_keys:
            index, prefix, target_attrs = lookups[fk.target]
            combo = view_summary.project_row(values, target_attrs)
            row_position = index.get(combo)
            if row_position is None:
                raise SummaryError(
                    f"view summaries are not referentially consistent: combination {combo!r}"
                    f" required by {relation!r} is missing from {fk.target!r}"
                )
            fk_values.append(prefix[row_position])
        attr_values = [values[p] for p in attr_positions]
        summary.rows.append((tuple(fk_values + attr_values), count))
    return summary
