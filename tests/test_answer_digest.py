"""tools/answer_digest.py prints the same well-formed digest on every run."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINE = re.compile(r"(yes|no|infinite|unknown) (-|\d+) [a-z:]+ (-|[0-9a-f]{40})")


def digest(cases: int, seed: int) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "answer_digest.py"), "--cases", str(cases), "--seed", str(seed)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_digest_is_reproducible_and_well_formed():
    first = digest(60, 3)
    assert first == digest(60, 3)
    lines = first.splitlines()
    assert len(lines) == 60
    assert all(LINE.fullmatch(line) for line in lines), lines
    assert {line.split()[0] for line in lines} >= {"yes", "no"}
