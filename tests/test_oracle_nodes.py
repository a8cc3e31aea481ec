"""tools/oracle_nodes.py prints the same well-formed node table on every run, one search per row."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINE = re.compile(r"\S+ [1-5] (inf|unknown|\d+) \d+")


def node_table() -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "oracle_nodes.py")],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_node_table_is_reproducible_and_well_formed():
    first = node_table()
    assert first == node_table()
    lines = first.splitlines()
    assert len(lines) == 23
    assert all(LINE.fullmatch(line) for line in lines), lines
    assert lines[0].startswith("petersen 1 5 ")
    # every row measures a search: none is refuted before it starts
    assert all(int(line.split()[-1]) > 0 for line in lines), lines
