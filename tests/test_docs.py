"""Tier-1 documentation drift checks.

Runs the same checks as the CI ``docs`` job (``tools/check_docs.py``):
every ``src/repro`` module must carry a module docstring, every fenced
python snippet in README/docs must compile — with ``>>>`` blocks executed
as doctests — every relative link must name a file that exists, and
README's knob table must list exactly the ``RegenConfig`` fields, so the
documentation layer cannot silently rot.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_module_has_a_docstring():
    checker = _load_checker()
    assert checker.check_module_docstrings() == []


def test_fenced_doc_snippets_compile_and_doctests_pass():
    checker = _load_checker()
    assert checker.check_fenced_snippets() == []


def test_relative_links_resolve():
    checker = _load_checker()
    assert checker.check_links() == []


def test_dead_link_is_reported(tmp_path):
    checker = _load_checker()
    (tmp_path / "here.md").write_text("x")
    page = tmp_path / "page.md"
    page.write_text("[ok](here.md#top) [web](https://example.org)"
                    " [anchor](#top) [gone](GONE.md)\n")
    assert checker.check_links([page]) == ["page.md: dead link to GONE.md"]


def test_knob_table_matches_the_config_fields():
    checker = _load_checker()
    assert checker.check_knob_table() == []


def test_knob_table_drift_is_reported():
    checker = _load_checker()
    readme = (REPO_ROOT / "README.md").read_text()
    header = checker.KNOB_TABLE_HEADER + "\n| --- | --- | --- |\n"
    drifted = readme.replace(header, header + "| `use_processes` | off | gone |\n")
    drifted = drifted.replace("| `strategy` |", "| `strategy` (`Gone(...)`) |")
    assert checker.check_knob_table(drifted) == [
        "README knob table: no row for RegenConfig.strategy",
        "README knob table: row `use_processes` is not a RegenConfig field",
    ]


def test_docs_reference_each_other():
    """README links the docs pages and each docs page links back."""
    readme = (REPO_ROOT / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in readme and "docs/SERVING.md" in readme
    assert "docs/API.md" in readme
    for page in ("ARCHITECTURE.md", "SERVING.md", "API.md"):
        text = (REPO_ROOT / "docs" / page).read_text()
        assert "README" in text or "repro.api" in text
