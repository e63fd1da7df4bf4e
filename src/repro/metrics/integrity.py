"""Referential-integrity accounting (Figure 11).

Both Hydra and DataSynth need to add tuples to referenced relations so that
every foreign key finds its target; the paper compares how many such *extra
tuples* each system injects per relation (Hydra's are typically an order of
magnitude fewer because its deterministic view solutions diverge less across
views than DataSynth's sampled instances)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple


@dataclass
class IntegrityComparison:
    """Extra tuples added per relation by each system."""

    hydra: Dict[str, int] = field(default_factory=dict)
    datasynth: Dict[str, int] = field(default_factory=dict)

    def relations(self, only_nonzero: bool = True) -> List[str]:
        """Relations to report (by default only those where either system
        added tuples)."""
        names = sorted(set(self.hydra) | set(self.datasynth))
        if not only_nonzero:
            return names
        return [
            name for name in names
            if self.hydra.get(name, 0) > 0 or self.datasynth.get(name, 0) > 0
        ]

    def rows(self) -> List[Tuple[str, int, int]]:
        """Tabular form: (relation, hydra extra tuples, datasynth extra tuples)."""
        return [
            (name, self.hydra.get(name, 0), self.datasynth.get(name, 0))
            for name in self.relations()
        ]

    def totals(self) -> Tuple[int, int]:
        """Total extra tuples for (hydra, datasynth)."""
        return sum(self.hydra.values()), sum(self.datasynth.values())


def compare_extra_tuples(hydra_extra: Mapping[str, int],
                         datasynth_extra: Optional[Mapping[str, int]] = None,
                         ) -> IntegrityComparison:
    """Bundle the two systems' extra-tuple counts for reporting."""
    return IntegrityComparison(
        hydra=dict(hydra_extra),
        datasynth=dict(datasynth_extra or {}),
    )
