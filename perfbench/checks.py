"""Answer checks.  They use only the benchmark's own code, never the package under test."""

from __future__ import annotations

import json

OK, FAILED, WRONG = "ok", "failed", "wrong"


def exact_witness_ok(adj, witness, d: int, max_colors: int) -> bool:
    """True iff the witness uses colors below max_colors and every vertex has exactly d same-colored neighbors."""
    if not isinstance(witness, dict) or not isinstance(witness.get("assign"), list):
        return False
    assign = witness["assign"]
    if len(assign) != len(adj):
        return False
    if any(not isinstance(c, int) or not 0 <= c < max_colors for c in assign):
        return False
    return all(sum(1 for u in nbrs if assign[u] == assign[v]) == d
               for v, nbrs in enumerate(adj))


def judge(expect: dict, rec: dict, adj=None) -> tuple[str, str]:
    """(outcome, reason) for one query record from worker.call_cli or a subprocess.

    A crash, a timeout, a missing report or an `unknown` verdict is FAILED.
    An answer that contradicts the expected one, or an invalid witness, is WRONG.
    """
    if rec.get("error"):
        return FAILED, rec["error"]
    kind = expect["kind"]
    if kind == "solve":
        return _judge_solve(expect, rec, adj)
    if kind == "verify":
        if rec["code"] not in (0, 3):
            return FAILED, f"exit {rec['code']}"
        valid = rec["code"] == 0 and "valid exact" in rec["out"]
        if valid != expect["valid"]:
            return WRONG, f"verify said valid={valid}, expected {expect['valid']}"
        return OK, ""
    if kind == "reduce":
        if "round-trip failed" in rec.get("err", ""):
            return WRONG, "reduction round-trip failed"
        if rec["code"] != 0:
            return FAILED, f"exit {rec['code']}"
        want = f"({'YES' if expect['source_yes'] else 'NO'})"
        if "check ok" not in rec["out"] or want not in rec["out"]:
            return WRONG, f"reduce check output lacks {want}"
        return OK, ""
    raise ValueError(f"unknown query kind {kind!r}")


def _judge_solve(expect, rec, adj):
    try:
        rep = json.loads(rec["out"])
        verdict = rep["verdict"]
    except (ValueError, KeyError, TypeError):
        return FAILED, f"no JSON report (exit {rec.get('code')})"
    if verdict == "unknown":
        return FAILED, f"unknown: {rep.get('reason')}"
    d, k, chi = expect["d"], expect["k"], expect["chi"]
    if rec.get("code") != 0:
        return WRONG, f"verdict {verdict} with exit {rec.get('code')}"
    if k is None:
        if chi is None:
            return (OK, "") if verdict == "infinite" else (WRONG, f"{verdict} chi={rep.get('chi')}, expected infinite")
        if verdict != "yes" or rep.get("chi") != chi:
            return WRONG, f"{verdict} chi={rep.get('chi')}, expected {chi}"
        limit = chi
    else:
        want = "yes" if chi is not None and chi <= k else "no"
        if verdict != want:
            return WRONG, f"{verdict}, expected {want}"
        if want == "no":
            return OK, ""
        limit = k
    if not exact_witness_ok(adj, rep.get("witness"), d, limit):
        return WRONG, "witness is not an exact coloring"
    return OK, ""
