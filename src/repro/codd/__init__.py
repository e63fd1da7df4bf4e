"""CODD-style scale-factor modelling."""

from repro.codd.scaling import (
    BYTES_PER_VALUE,
    bytes_per_row,
    database_bytes,
    scale_constraints,
    scale_factor_for_bytes,
    scale_summary,
)

__all__ = [
    "BYTES_PER_VALUE",
    "bytes_per_row",
    "database_bytes",
    "scale_factor_for_bytes",
    "scale_constraints",
    "scale_summary",
]
