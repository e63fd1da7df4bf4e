"""Domain partitioning: region partitioning (Hydra) and grid partitioning
(DataSynth), plus consistency refinement across sub-views.

The LP formulator works on :class:`~repro.partition.signature.
SignaturePartition` arrays (``partition_signatures`` for regions,
``grid_signatures`` for the grid); the box-based partitions exported here
spell the paper's definitions out geometrically."""

from repro.partition.box import Box, conjunct_boxes, domain_box
from repro.partition.grid import (
    DEFAULT_MAX_CELLS,
    grid_cell_count,
    grid_intervals,
    grid_partition,
)
from repro.partition.region import (
    Region,
    optimal_partition,
    optimal_partition_paper,
    valid_partition,
)

__all__ = [
    "Box",
    "domain_box",
    "conjunct_boxes",
    "Region",
    "optimal_partition",
    "optimal_partition_paper",
    "valid_partition",
    "grid_cell_count",
    "grid_intervals",
    "grid_partition",
    "DEFAULT_MAX_CELLS",
]
