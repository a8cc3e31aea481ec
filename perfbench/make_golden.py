"""Regenerate golden.json: the expected answers of the benchmark's fixed graphs and pools.

usage: python3 perfbench/make_golden.py      (from the repository root)

Each pool candidate is solved once through the CLI route the benchmark uses
for it, timed, and kept unless it is slower than the pool's cap.  Every
answer with n <= 20 must agree with the independent quotient solver
(chi_via_quotients) and, on the auto route, with the oracle; every finite
answer's witness must pass the benchmark's own exactness check.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import exactcolor.cli as cli  # noqa: E402
from exactcolor.oracle import brute_chi, chi_via_quotients  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
from worker import call_cli  # noqa: E402


def _chi(outcome):
    return outcome.chi if outcome.is_finite else None


def _cross_check(g, d, chi, route, label):
    if g.n > 20:
        return
    ref = _chi(chi_via_quotients(g, d))
    if route == "auto":
        ref_brute = _chi(brute_chi(g, d, budget=corpus.ORACLE_BUDGET))
        if ref_brute != ref:
            raise SystemExit(f"{label}: oracle {ref_brute} != quotient solver {ref}")
    if ref != chi:
        raise SystemExit(f"{label}: CLI answered {chi}, quotient solver {ref}")


def _solve(g, d, route, workdir):
    path = os.path.join(workdir, "g.txt")
    corpus.write_graph_file(Path(path), g, "edgelist")
    argv = ["solve", path, "--d", str(d), "--chi"]
    if route == "brute":
        argv += ["--algorithm", "brute", "--budget", str(corpus.ORACLE_BUDGET)]
    rec = call_cli(cli, argv, 600)
    rep = json.loads(rec["out"])
    if rep["verdict"] not in ("yes", "infinite"):
        raise SystemExit(f"unexpected report {rep}")
    chi = rep["chi"]
    if chi is not None and not checks.exact_witness_ok(g.adj, rep["witness"], d, chi):
        raise SystemExit(f"invalid witness for {argv}")
    return chi, rec["latency_s"]


def main() -> int:
    golden = {"fixed": {}, "pools": {}}
    for name, (make, ds) in corpus.FIXED.items():
        g = make()
        for d in ds:
            chi = _chi(brute_chi(g, d, budget=corpus.ORACLE_BUDGET))
            _cross_check(g, d, chi, "brute", f"{name} d={d}")
            golden["fixed"][f"{name}-d{d}"] = chi
    with tempfile.TemporaryDirectory() as workdir:
        for name, (maker, size, cap, route) in corpus.POOLS.items():
            entries = []
            for i in itertools.count():
                if len(entries) == size:
                    break
                if i >= 10 * size:
                    raise SystemExit(f"pool {name}: too few candidates under the cap")
                spec, d = maker(i, random.Random(f"{name}:{i}"))
                g = corpus.make_graph(spec)
                chi, cost = _solve(g, d, route, workdir)
                if cap is not None and cost > cap:
                    continue
                _cross_check(g, d, chi, route, f"{name} {spec}")
                entries.append({"spec": spec, "d": d, "chi": chi, "cost_s": round(cost, 4),
                                "digest": corpus.edge_digest(g)})
                print(f"{name} {len(entries)}/{size} {spec} d={d} chi={chi} {cost:.3f}s",
                      file=sys.stderr, flush=True)
            golden["pools"][name] = entries
    corpus.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
