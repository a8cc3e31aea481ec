"""tools/oracle_nodes.py prints the same well-formed node table on every run, one search per row.

The table itself is pinned: a change that alters the oracle's answers or
node counts on purpose updates NODE_TABLE and says why.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# "name d chi nodes" per instance
NODE_TABLE_SHA256 = "151349bc2c76899dde36ab9d42787fef9c3086c66e508a4ceee9a9820ead90a2"
NODE_TABLE = """\
petersen 1 5 593
petersen 2 2 33
petersen 3 1 27
icosahedron 1 3 47
icosahedron 2 2 37
icosahedron 3 inf 100
icosahedron 4 inf 33
icosahedron 5 1 33
octahedron 1 3 30
octahedron 2 2 28
octahedron 3 inf 17
octahedron 4 1 19
W_10 1 3 37
W_12 1 3 43
W_16 2 inf 100
W_18 2 inf 131
G(16,0.5,1) 1 4 163
G(18,0.5,1) 1 5 849
G(20,0.5,1) 1 5 1223
G(22,0.5,1) 1 5 1622
G(16,0.5,1) 2 4 20017
G(18,0.5,1) 2 4 2217
G(20,0.5,1) 2 4 3272
"""
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


def test_node_table_matches_the_pinned_table():
    assert hashlib.sha256(NODE_TABLE.encode()).hexdigest() == NODE_TABLE_SHA256
    got = node_table()
    assert got == NODE_TABLE, (
        "oracle answers or node counts changed; compare with a checkout of the parent:\n"
        "  PYTHONPATH=src python3 tools/oracle_nodes.py > new.txt\n"
        "  (cd PARENT && PYTHONPATH=src python3 tools/oracle_nodes.py > old.txt)\n"
        "  diff PARENT/old.txt new.txt"
    )
