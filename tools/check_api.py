"""Public-API surface lock (run by the CI ``docs`` job and tier-1 tests).

Snapshots the public surface — ``repro.__all__``, ``repro.api.__all__``,
the call signatures of every ``repro.api`` symbol (for classes: their public
methods) and the constructor and public-method signatures of the classes
``bench_e2e`` drives directly (``repro.Hydra``, ``repro.RegenerationService``)
— into ``tools/api_surface.json`` and fails when the live library drifts
from the snapshot.  Accidental additions, removals and signature
changes all become an explicit review decision: rerun with ``--update`` to
bless an intentional change.

Usage::

    python tools/check_api.py           # exit 0 when clean, 1 on drift
    python tools/check_api.py --update  # rewrite the snapshot
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = REPO_ROOT / "tools" / "api_surface.json"

#: Top-level classes ``bench_e2e`` constructs and calls directly.
DRIVEN_CLASSES = ("Hydra", "RegenerationService")


def _signature(obj: object) -> str:
    try:
        return str(inspect.signature(obj))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return "<no signature>"


def _methods(cls: type) -> Dict[str, str]:
    """Signatures of a class's public methods."""
    return {attr: _signature(member) for attr, member in sorted(vars(cls).items())
            if not attr.startswith("_") and callable(member)}


def current_surface() -> Dict[str, object]:
    """Compute the live public surface."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    import repro
    import repro.api

    api_signatures: Dict[str, object] = {}
    for name in sorted(repro.api.__all__):
        symbol = getattr(repro.api, name)
        if inspect.isclass(symbol):
            api_signatures[name] = {"kind": "class", "methods": _methods(symbol)}
        elif callable(symbol):
            api_signatures[name] = {"kind": "function",
                                    "signature": _signature(symbol)}
        else:
            api_signatures[name] = {"kind": "value", "type": type(symbol).__name__}
    return {
        "repro_all": sorted(repro.__all__),
        "repro_api_all": sorted(repro.api.__all__),
        "repro_api_signatures": api_signatures,
        "driven_signatures": {
            name: {"__init__": _signature(getattr(repro, name).__init__),
                   **_methods(getattr(repro, name))}
            for name in DRIVEN_CLASSES
        },
    }


def _diff(expected: object, actual: object, path: str, errors: List[str]) -> None:
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in actual:
                errors.append(f"{path}.{key}: removed from the live surface")
            elif key not in expected:
                errors.append(f"{path}.{key}: added but not in the snapshot")
            else:
                _diff(expected[key], actual[key], f"{path}.{key}", errors)
    elif isinstance(expected, list) and isinstance(actual, list):
        for name in sorted(set(expected) - set(actual)):
            errors.append(f"{path}: {name!r} removed from the live surface")
        for name in sorted(set(actual) - set(expected)):
            errors.append(f"{path}: {name!r} added but not in the snapshot")
    elif expected != actual:
        errors.append(f"{path}: snapshot {expected!r} != live {actual!r}")


def check() -> List[str]:
    """Return one error per drift between the snapshot and the live surface."""
    if not SNAPSHOT.exists():
        return [f"snapshot {SNAPSHOT.relative_to(REPO_ROOT)} missing;"
                " run: python tools/check_api.py --update"]
    expected = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    errors: List[str] = []
    _diff(expected, current_surface(), "api", errors)
    return errors


def main(argv: List[str]) -> int:
    if "--update" in argv:
        SNAPSHOT.write_text(json.dumps(current_surface(), indent=2,
                                       sort_keys=True) + "\n", encoding="utf-8")
        print(f"api check: snapshot written to {SNAPSHOT.relative_to(REPO_ROOT)}")
        return 0
    errors = check()
    for error in errors:
        print(f"api check: {error}", file=sys.stderr)
    if errors:
        print("api check: intentional change? rerun with --update",
              file=sys.stderr)
        return 1
    print("api check: public surface matches tools/api_surface.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
