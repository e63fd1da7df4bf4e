"""Tier-1 enforcement of the public-API surface lock (tools/check_api.py).

The snapshot in ``tools/api_surface.json`` is the reviewed public surface;
any accidental addition, removal or signature change of ``repro.__all__`` /
``repro.api`` fails here (and in the CI ``docs`` job) until it is blessed
with ``python tools/check_api.py --update``.  The same file keeps ``src/``
and ``tests/`` free of imports nothing uses.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


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


def _module_level_imports(tree: ast.Module):
    """``(line, bound name)`` of every import in the module body, including
    those under module-level ``if``/``try`` blocks, except ``__future__``."""
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.If, ast.Try)):
            pending[:0] = [*node.body, *node.orelse,
                           *getattr(node, "finalbody", []),
                           *(s for h in getattr(node, "handlers", []) for s in h.body)]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, (alias.asname or alias.name).split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _names_used(tree: ast.Module) -> set:
    """Every name the module reads, including names inside string
    annotations such as ``-> "Table"``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expression) if isinstance(n, ast.Name))
    return used


def test_src_has_no_unused_imports():
    """No ``src/`` or ``tests/`` module imports a name it never uses
    (package ``__init__.py`` files re-export theirs, so they are skipped)."""
    unused = []
    for path in sorted([*SRC.rglob("*.py"), *(REPO_ROOT / "tests").rglob("*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _names_used(tree)
        unused += [f"{path.relative_to(REPO_ROOT)}:{line}: {name}"
                   for line, name in _module_level_imports(tree) if name not in used]
    assert unused == [], "unused imports:\n" + "\n".join(unused)
