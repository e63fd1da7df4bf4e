"""Tier-1 enforcement of the public-API surface lock (tools/check_api.py).

The snapshot in ``tools/api_surface.json`` is the reviewed public surface;
any accidental addition, removal or signature change of ``repro.__all__`` /
``repro.api`` fails here (and in the CI ``docs`` job) until it is blessed
with ``python tools/check_api.py --update``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_check_api():
    spec = importlib.util.spec_from_file_location(
        "check_api", REPO_ROOT / "tools" / "check_api.py"
    )
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


def test_public_surface_matches_snapshot():
    check_api = _load_check_api()
    errors = check_api.check()
    assert errors == [], "\n".join(errors)


def test_snapshot_covers_the_session_facade():
    check_api = _load_check_api()
    surface = check_api.current_surface()
    assert "Session" in surface["repro_all"]
    assert "RegenConfig" in surface["repro_all"]
    session = surface["repro_api_signatures"]["Session"]
    for verb in ("extract", "summarize", "regenerate", "verify", "serve"):
        assert verb in session["methods"], f"Session.{verb} missing"


def test_snapshot_covers_the_classes_the_benchmark_drives():
    check_api = _load_check_api()
    driven = check_api.current_surface()["driven_signatures"]
    assert "RegenConfig" in driven["Hydra"]["__init__"]
    assert "config" in driven["RegenerationService"]["__init__"]
    for method in ("request_fingerprint", "component_manifest", "build_summary"):
        assert method in driven["Hydra"], f"Hydra.{method} missing"
