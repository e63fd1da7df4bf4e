"""The Hydra regenerator: client-side extraction and vendor-side pipeline."""

from repro.hydra.client import ClientPackage, extract_constraints
from repro.hydra.pipeline import Hydra, HydraResult, ViewBuildReport

__all__ = [
    "Hydra",
    "HydraResult",
    "ViewBuildReport",
    "ClientPackage",
    "extract_constraints",
]
