"""Every Python file of the project parses under the oldest grammar pyproject.toml allows.

This checks grammar only: a library call or a regex feature that is newer
than the floor still needs a run on that interpreter to show.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_file_parses_with_the_floor_grammar():
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    version = tuple(map(int, floor.groups()))
    files = sorted(p for top in ("src", "tests", "tools", "demos", "perfbench")
                   for p in (ROOT / top).rglob("*.py"))
    assert len(files) >= 49
    failures = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures, failures
