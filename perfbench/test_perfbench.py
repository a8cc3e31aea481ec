"""Self-tests of the benchmark harness.

usage: python3 -m pytest perfbench      (from the repository root)
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402
from exactcolor import families  # noqa: E402


def _snapshot(workload, seed, workdir):
    c = corpus.WORKLOADS[workload](seed, workdir)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return [(q.qid, q.argv, q.expect) for q in c.queries + c.probes], files


def test_corpus_is_identical_for_the_same_seed(tmp_path):
    for workload in ("oracle-hard", "mixed-batch"):
        dirs = [tmp_path / f"{workload}-{i}" for i in range(3)]
        for d in dirs:
            d.mkdir()
        first = _snapshot(workload, 7, dirs[0])
        assert first == _snapshot(workload, 7, dirs[1])
        assert first != _snapshot(workload, 8, dirs[2])


def test_self_time_on_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    spans = [["a", 0.0, 10.0, -1, "q"], ["b", 1.0, 4.0, 0, "q"],
             ["c", 2.0, 3.0, 1, "q"], ["d", 5.0, 9.0, 0, "q"], ["c", 6.0, 8.0, 3, "q"]]
    assert tracing.self_times(spans) == {"a": 3.0, "b": 2.0, "c": 3.0, "d": 2.0}


def test_tracer_records_parents_and_counts():
    tracer = tracing.Tracer()
    inner = tracer.wrap("graphs.perfect_matchings", lambda: [1, 2, 3])
    outer = tracer.wrap("cactus.cactus_chi1", lambda: inner())
    tracer.query = "q1"
    outer()
    names = [s[0] for s in tracer.spans]
    assert names == ["cactus.cactus_chi1", "graphs.perfect_matchings"]
    assert [s[3] for s in tracer.spans] == [-1, 0]
    assert tracer.counts["graphs.perfect_matchings.matchings"] == 3


def _solve_record(chi, assign):
    rep = {"verdict": "yes", "chi": chi, "witness": {"k": chi, "assign": assign}}
    return {"code": 0, "out": json.dumps(rep), "error": None}


def test_golden_check_rejects_a_corrupted_witness():
    g = families.cycle(8)                       # chi_1(C_8) = 2: pairs 01 23 45 67
    expect = {"kind": "solve", "d": 1, "k": None, "chi": 2}
    good = [0, 0, 1, 1, 0, 0, 1, 1]
    assert checks.judge(expect, _solve_record(2, good), g.adj)[0] == checks.OK
    bad = [1] + good[1:]
    assert checks.judge(expect, _solve_record(2, bad), g.adj)[0] == checks.WRONG
    assert checks.judge(expect, _solve_record(3, [0, 0, 1, 1, 2, 2, 1, 1]), g.adj)[0] == checks.WRONG
    unknown = {"code": 2, "out": json.dumps({"verdict": "unknown"}), "error": None}
    assert checks.judge(expect, unknown, g.adj)[0] == checks.FAILED
