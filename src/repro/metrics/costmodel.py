"""Materialisation cost modelling (Figure 14).

The paper reports wall-clock materialisation times for 10 GB, 100 GB and
1000 GB databases (minutes for Hydra, hours-to-weeks for DataSynth).  Those
target sizes cannot be materialised on this substrate, so the benchmark
measures per-row throughput of both systems at a small scale and extrapolates
linearly in the number of rows — which is the right model because both
systems' materialisation passes are embarrassingly row-linear (Hydra streams
``np.repeat`` batches out of the summary; DataSynth samples, repairs and
re-scans full view instances)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.codd.scaling import bytes_per_row
from repro.schema.schema import Schema


@dataclass
class ThroughputModel:
    """A linear cost model calibrated from one measured run."""

    measured_rows: int
    measured_seconds: float
    overhead_seconds: float = 0.0

    @property
    def rows_per_second(self) -> float:
        """Calibrated throughput."""
        if self.measured_seconds <= 0:
            return float("inf")
        return self.measured_rows / self.measured_seconds

    def predict_seconds(self, target_rows: int) -> float:
        """Predicted wall-clock time to materialise ``target_rows`` rows."""
        if self.rows_per_second == float("inf"):
            return self.overhead_seconds
        return self.overhead_seconds + target_rows / self.rows_per_second


def rows_for_target_bytes(schema: Schema, target_bytes: int,
                          nominal_counts: Mapping[str, int],
                          nominal_bytes: Optional[int] = None) -> int:
    """Total row count of a database scaled to ``target_bytes``.

    ``nominal_counts`` are the row counts of the reference (e.g. 100 GB)
    configuration; the same per-relation proportions are kept.
    """
    if nominal_bytes is None:
        nominal_bytes = sum(
            count * bytes_per_row(schema, name) for name, count in nominal_counts.items()
        )
    if nominal_bytes <= 0:
        return 0
    factor = target_bytes / nominal_bytes
    return int(sum(count * factor for count in nominal_counts.values()))


def materialization_table(schema: Schema, nominal_counts: Mapping[str, int],
                          hydra_model: ThroughputModel, datasynth_model: Optional[ThroughputModel],
                          target_gigabytes: Sequence[int] = (10, 100, 1000),
                          ) -> List[Dict[str, object]]:
    """Build the Figure 14 table: predicted materialisation time per target
    size for Hydra and (when it could run) DataSynth."""
    rows: List[Dict[str, object]] = []
    for gigabytes in target_gigabytes:
        target_bytes = gigabytes * 10**9
        total_rows = rows_for_target_bytes(schema, target_bytes, nominal_counts)
        entry: Dict[str, object] = {
            "size_gb": gigabytes,
            "total_rows": total_rows,
            "hydra_seconds": hydra_model.predict_seconds(total_rows),
        }
        if datasynth_model is not None:
            entry["datasynth_seconds"] = datasynth_model.predict_seconds(total_rows)
        rows.append(entry)
    return rows


def format_duration(seconds: float) -> str:
    """Human-friendly rendering used by the benchmark reports."""
    if seconds < 120:
        return f"{seconds:.1f} sec"
    minutes = seconds / 60
    if minutes < 120:
        return f"{minutes:.1f} min"
    hours = minutes / 60
    if hours < 48:
        return f"{hours:.1f} hours"
    days = hours / 24
    if days < 14:
        return f"{days:.1f} days"
    return f"{days / 7:.1f} weeks"
