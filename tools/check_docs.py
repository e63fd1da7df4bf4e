"""Documentation drift checks (run by the CI ``docs`` job and tier-1 tests).

Three guarantees, failing the build on drift:

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

Usage::

    python tools/check_docs.py          # exit 0 when clean, 1 with findings
"""

from __future__ import annotations

import ast
import doctest
import re
import sys
from pathlib import Path
from typing import Iterable, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
FENCE = re.compile(r"```python[ \t]*\n(.*?)```", re.DOTALL)
#: The target of an inline Markdown link: ``[text](target)``.
LINK = re.compile(r"\]\(([^)\s]+)\)")


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


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))  # make `repro` doctest-importable
    errors = (check_module_docstrings() + check_fenced_snippets()
              + check_links())
    for error in errors:
        print(f"docs check: {error}", file=sys.stderr)
    if not errors:
        print(f"docs check: {len(doc_files())} doc files, their links and"
              " all src/repro module docstrings clean")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
