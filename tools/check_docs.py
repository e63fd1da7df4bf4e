"""Documentation drift checks (run by the CI ``docs`` job and tier-1 tests).

Four guarantees, failing the build on drift:

1. **Module docstrings** — every Python module under ``src/repro/`` carries
   a module docstring (packages included), so the package contracts
   documented in ``docs/ARCHITECTURE.md`` always have an in-code anchor.
2. **Fenced snippets** — every ```` ```python ```` block in ``README.md``
   and ``docs/*.md`` must at least compile; blocks containing ``>>>``
   prompts are executed through :mod:`doctest` (the same machinery as
   ``python -m doctest``) with ``src/`` importable, so documented examples
   and their printed outputs cannot rot.
3. **Relative links** — every relative Markdown link in ``README.md`` and
   ``docs/*.md`` names a file that exists, so removing a page cannot leave
   a dead link behind.
4. **Knob table** — the rows of README's knob table that no class name
   qualifies are exactly the fields of ``repro.api.RegenConfig``, so a field
   added or removed without its row (or a row without its field) fails.

Usage::

    python tools/check_docs.py          # exit 0 when clean, 1 with findings
"""

from __future__ import annotations

import ast
import dataclasses
import doctest
import re
import sys
from pathlib import Path
from typing import Iterable, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
FENCE = re.compile(r"```python[ \t]*\n(.*?)```", re.DOTALL)
#: The target of an inline Markdown link: ``[text](target)``.
LINK = re.compile(r"\]\(([^)\s]+)\)")
#: The header row of README's knob table.
KNOB_TABLE_HEADER = "| knob | default | effect |"


def doc_files() -> List[Path]:
    """The markdown files whose fenced snippets are checked."""
    return [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]


def check_module_docstrings() -> List[str]:
    """Return one error per ``src/repro`` module missing a docstring."""
    errors = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if not ast.get_docstring(tree):
            errors.append(f"{path.relative_to(REPO_ROOT)}: missing module docstring")
    return errors


def check_fenced_snippets() -> List[str]:
    """Compile every fenced python block; run doctest blocks."""
    errors = []
    runner = doctest.DocTestRunner(verbose=False,
                                   optionflags=doctest.ELLIPSIS)
    parser = doctest.DocTestParser()
    for path in doc_files():
        if not path.exists():
            errors.append(f"{path.relative_to(REPO_ROOT)}: file not found")
            continue
        text = path.read_text(encoding="utf-8")
        for index, block in enumerate(FENCE.findall(text)):
            name = f"{path.relative_to(REPO_ROOT)}[block {index}]"
            if ">>>" in block:
                test = parser.get_doctest(block, {}, name, str(path), 0)
                result = runner.run(test, clear_globs=True)
                if result.failed:
                    errors.append(f"{name}: {result.failed} doctest failure(s)")
            else:
                try:
                    compile(block, name, "exec")
                except SyntaxError as error:
                    errors.append(f"{name}: does not compile ({error.msg},"
                                  f" line {error.lineno})")
    return errors


def check_links(paths: Optional[Iterable[Path]] = None) -> List[str]:
    """Return one error per relative link whose target file is missing."""
    errors = []
    for path in doc_files() if paths is None else paths:
        for target in LINK.findall(path.read_text(encoding="utf-8")):
            if re.match(r"[a-z]+:", target) or target.startswith("#"):
                continue  # a URL or an in-page anchor
            if not (path.parent / target.split("#", 1)[0]).exists():
                errors.append(f"{path.name}: dead link to {target}")
    return errors


def table_knobs(text: str) -> List[str]:
    """The knobs named by the knob table's rows that no class name
    qualifies: a row's first cell holds one or more backticked names, and
    a qualified row adds the class in parentheses, e.g. ``(`Executor(...)`)``."""
    lines = text.splitlines()
    knobs: List[str] = []
    for line in lines[lines.index(KNOB_TABLE_HEADER) + 2:]:
        if not line.startswith("|"):
            break
        cell = line.split("|")[1]
        if "(" not in cell:
            knobs += re.findall(r"`([^`]+)`", cell)
    return knobs


def check_knob_table(text: Optional[str] = None) -> List[str]:
    """Return one error per ``RegenConfig`` field without a README row and
    per unqualified row that names no field."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.api import RegenConfig

    if text is None:
        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    documented = table_knobs(text)
    fields = [f.name for f in dataclasses.fields(RegenConfig)]
    errors = [f"README knob table: no row for RegenConfig.{name}"
              for name in fields if name not in documented]
    errors += [f"README knob table: row `{name}` is not a RegenConfig field"
               for name in documented if name not in fields]
    return errors


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))  # make `repro` doctest-importable
    errors = (check_module_docstrings() + check_fenced_snippets()
              + check_links() + check_knob_table())
    for error in errors:
        print(f"docs check: {error}", file=sys.stderr)
    if not errors:
        print(f"docs check: {len(doc_files())} doc files, their links, the"
              " README knob table and all src/repro module docstrings clean")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
