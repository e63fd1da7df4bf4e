"""Value anonymisation (Section 3.1).

Before schema, metadata, queries and CCs leave the client site, Hydra passes
them through an anonymiser.  Its value half lives here: every non-numeric
constant maps to an integer, so that the vendor-side pipeline only ever sees
numbers.  The mapping is reversible at the client, but the reverse direction
is never needed for satisfying cardinality constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable


@dataclass
class Anonymizer:
    """Bidirectional mapping of arbitrary client values to integers.

    Codes are scoped per attribute, so that equal strings in unrelated
    columns do not leak correlations.
    """

    _values: Dict[str, Dict[Hashable, int]] = field(default_factory=dict)
    _reverse_values: Dict[str, Dict[int, Hashable]] = field(default_factory=dict)

    def encode(self, attribute: str, value: Hashable) -> int:
        """Map a client value of ``attribute`` to its integer code.

        Integers are passed through unchanged (they are already safe for the
        LP); any other value receives the next free code for that attribute.
        """
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        mapping = self._values.setdefault(attribute, {})
        if value not in mapping:
            code = len(mapping)
            mapping[value] = code
            self._reverse_values.setdefault(attribute, {})[code] = value
        return mapping[value]

    def decode(self, attribute: str, code: int) -> Hashable:
        """Return the original value for an integer code (integers that were
        passed through unchanged decode to themselves)."""
        mapping = self._reverse_values.get(attribute, {})
        return mapping.get(code, code)
