"""The benchmark's tracer wraps functions by name; every name must still exist."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_names() -> list[tuple[str, str]]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            traced = ast.literal_eval(node.value)
            return [(mod, fn) for mod, fns in traced.items() for fn in fns]
    raise AssertionError("perfbench/tracing.py defines no TRACED table")


@pytest.mark.parametrize("mod,fn", traced_names())
def test_traced_name_resolves(mod, fn):
    assert callable(getattr(importlib.import_module(f"exactcolor.{mod}"), fn, None))
