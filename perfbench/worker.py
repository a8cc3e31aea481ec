"""Run exactcolor CLI queries inside this interpreter; write timings and outputs.

usage: python3 worker.py JOB.json RESULT.json

Run from the work directory that holds the query files, with the package
under test on PYTHONPATH.  The job lists the queries, the least number of
passes over the whole list and the seconds that further passes may fill,
whether to trace, and probe queries that run once after the timed passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys
import time


class QueryTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise QueryTimeout


def call_cli(cli, argv: list[str], limit_s: float) -> dict:
    """One in-process `exactcolor` call: exit code, output, error, latency."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except QueryTimeout:
        error = "timeout"
    except SystemExit as exc:
        error = f"SystemExit: {exc.code}"
    except Exception as exc:  # a crash of the program under test is a failed query
        error = f"{type(exc).__name__}: {exc}"[:300]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    latency = time.perf_counter() - start
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()[-300:],
            "error": error, "latency_s": latency}


def another_pass(start: float, passes: int, seconds: float, min_passes: int) -> bool:
    """True for the first `min_passes` passes, then while one more pass of average length fits in `seconds`."""
    if passes < min_passes:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / passes <= seconds


def save_witness(out: str, path: str) -> None:
    """Write the report's witness to `path` and a copy with vertex 0 recolored to `path`.bad."""
    try:
        witness = json.loads(out)["witness"]
    except (ValueError, KeyError, TypeError):
        return
    if not witness:
        return
    k, assign = witness["k"], witness["assign"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(map(str, [k] + assign)) + "\n")
    # a fresh color on vertex 0 leaves it, and its former same-colored
    # neighbors, off the target defect whenever d >= 1
    with open(path + ".bad", "w", encoding="utf-8") as fh:
        fh.write("\n".join(map(str, [k + 1, k] + assign[1:])) + "\n")


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    import exactcolor.cli as cli

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    records = []
    passes = 0
    start = time.perf_counter()
    while another_pass(start, passes, job["seconds"], job["min_passes"]):
        for q in job["queries"]:
            if tracer:
                tracer.query = f"{passes}:{q['qid']}"
            rec = call_cli(cli, q["argv"], job["limit_s"])
            rec.update(qid=q["qid"], round=passes)
            records.append(rec)
            if q.get("save_witness"):
                save_witness(rec["out"], q["save_witness"])
        passes += 1
    if tracer:
        tracer.query = None
    probes = []
    for q in job["probes"]:
        rec = call_cli(cli, q["argv"], job["limit_s"])
        rec.update(qid=q["qid"], round=0)
        probes.append(rec)

    result = {"passes": passes, "records": records, "probes": probes}
    if tracer:
        result["layers"] = tracer.summary()
        with open(job["trace_out"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
