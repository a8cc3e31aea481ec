"""exactcolor benchmark: one seeded workload, its end-to-end metrics or its per-layer trace.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package under test is imported from
its src/ directory.  The run builds the workload's corpus from the seed
(corpus.py; not timed), repeats the workload's query list its least
number of passes (three, four for poly-100k), and again while another
pass fits in S seconds, checks every answer
(checks.py) and prints each metric with its unit.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 when every answer was
correct, 1 when one was wrong and 2 when the run could not be made.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the query list
untraced for S/2 seconds, then traced for S/2 seconds (at least one pass
each), and reports the per-layer metrics (README.md).  Load is one client
in a closed loop: each query starts when the previous one has ended.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracing
from worker import another_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

QUERY_LIMIT_S = 60       # a query running longer is killed and counts as failed
SETUP_RUNS = 41

SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import exactcolor.cli as cli\n"
    "cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


class RunError(Exception):
    """The benchmark could not be run (as opposed to a wrong answer)."""


def _wait(proc: subprocess.Popen, limit_s: float) -> tuple[int, float, bool]:
    """Wait for a child; return (exit code, peak RSS in MB, killed for overrunning)."""
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(limit_s, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024, killed.is_set()


def _spawn(argv, workdir: Path, env, stem: str, limit_s: float):
    """Run argv with output to files; return (exit code, stdout, stderr, peak RSS MB, killed, wall s)."""
    out_path, err_path = workdir / f"{stem}.stdout", workdir / f"{stem}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=out, stderr=err)
        code, rss, killed = _wait(proc, limit_s)
        wall = time.perf_counter() - start
    return (code, out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace")[-300:], rss, killed, wall)


def _job(queries, seconds, traced, probes, trace_out, min_passes) -> dict:
    return {
        "queries": [{"qid": q.qid, "argv": q.argv, "save_witness": q.save_witness} for q in queries],
        "probes": [{"qid": q.qid, "argv": q.argv} for q in probes],
        "seconds": seconds, "min_passes": min_passes, "trace": traced,
        "limit_s": QUERY_LIMIT_S, "trace_out": trace_out,
    }


def _run_worker(job: dict, workdir: Path, env, stem: str, limit_s: float) -> tuple[dict, float, float]:
    job_path, result_path = workdir / f"{stem}.job.json", workdir / f"{stem}.result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    argv = [sys.executable, str(HERE / "worker.py"), job_path.name, result_path.name]
    code, _, err, rss, killed, wall = _spawn(argv, workdir, env, stem, limit_s)
    if code != 0:
        raise RunError(f"worker {stem} {'overran' if killed else f'exited {code}'}: {err}")
    return json.loads(result_path.read_text(encoding="utf-8")), rss, wall


def _merge_layers(total: dict | None, part: dict) -> dict:
    if total is None:
        return part
    for key in ("calls", "self_s", "counts"):
        for name, value in part[key].items():
            total[key][name] = total[key].get(name, 0) + value
    total["bct_calls"] += part["bct_calls"]
    total["bct_queries"] += part["bct_queries"]
    return total


def run_phase(corpus, seconds: float, traced: bool, env, with_probes: bool, min_passes: int) -> dict:
    """Repeat the query list `min_passes` times, then while another pass fits in `seconds`.

    Workloads with `fresh_process` run each query in a fresh interpreter, as
    a user of the CLI does; the others run their queries one after another
    in one worker interpreter.  Returns records, passes, peak RSS and, when traced,
    the per-layer summary.
    """
    workdir = WORK / corpus.workload
    tag = "traced" if traced else "plain"
    if not corpus.fresh_process:
        job = _job(corpus.queries, seconds, traced, corpus.probes if with_probes else [],
                   f"{tag}.trace.json", min_passes)
        result, rss, _ = _run_worker(job, workdir, env, tag, seconds + 2 * QUERY_LIMIT_S)
        return {"records": result["records"], "passes": result["passes"], "rss_mb": rss,
                "layers": result.get("layers"), "probes": result["probes"]}

    records, rss_max, passes, layers = [], 0.0, 0, None
    start = time.perf_counter()
    while another_pass(start, passes, seconds, min_passes):
        for q in corpus.queries:
            stem = f"{tag}-r{passes}-{q.qid}"
            if traced:
                job = _job([q], 0, True, [], f"{stem}.trace.json", min_passes=1)
                result, rss, wall = _run_worker(job, workdir, env, stem, QUERY_LIMIT_S)
                rec = result["records"][0]
                layers = _merge_layers(layers, result["layers"])
            else:
                argv = [sys.executable, "-m", "exactcolor.cli"] + q.argv
                code, out, err, rss, killed, wall = _spawn(argv, workdir, env, stem, QUERY_LIMIT_S)
                rec = {"code": code, "out": out, "err": err,
                       "error": "timeout" if killed else (f"killed by signal {-code}" if code < 0 else None)}
            rec.update(qid=q.qid, round=passes, latency_s=wall)
            records.append(rec)
            rss_max = max(rss_max, rss)
        passes += 1
    return {"records": records, "passes": passes, "rss_mb": rss_max, "layers": layers, "probes": []}


def judge_records(corpus, records: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, wrong answers) over query records."""
    by_id = {q.qid: q for q in corpus.queries + corpus.probes}
    failed, wrong = 0, []
    for rec in records:
        q = by_id[rec["qid"]]
        g = corpus.graphs.get(q.qid)
        outcome, reason = checks.judge(q.expect, rec, g.adj if g else None)
        if outcome == checks.FAILED:
            failed += 1
            print(f"failed: {q.qid} {' '.join(q.argv)}: {reason}", file=sys.stderr)
        elif outcome == checks.WRONG:
            wrong.append(f"{q.qid} {' '.join(q.argv)}: {reason}")
    return len(records), failed, wrong


def best_latencies(phase: dict) -> list[float]:
    """Each query's fastest latency over the passes of a phase, in seconds.

    The reference host, a two-core VM, runs up to 60 % slower for a second
    to a minute at a time, so the best of several passes is far steadier
    than any one pass.
    """
    best: dict[str, float] = {}
    for rec in phase["records"]:
        best[rec["qid"]] = min(rec["latency_s"], best.get(rec["qid"], float("inf")))
    return list(best.values())


def measure_setup(env, workdir: Path) -> float:
    """Median seconds for a fresh interpreter to import exactcolor.cli and build its parser."""
    samples = []
    for i in range(SETUP_RUNS + 1):   # the first run only warms the bytecode cache
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=workdir, env=env,
                              capture_output=True, text=True, timeout=QUERY_LIMIT_S)
        if proc.returncode != 0:
            raise RunError(f"importing exactcolor.cli failed: {proc.stderr[-300:]}")
        if i:
            samples.append(float(proc.stdout))
    return statistics.median(samples)


def end_to_end(phase: dict, attempted: int, failed: int, setup_s: float) -> dict:
    best = best_latencies(phase)
    lat_ms = [t * 1000 for t in best]
    pct = statistics.quantiles(lat_ms, n=10, method="inclusive")
    return {
        "wall_s": (sum(best), "s"),
        "query_p50_ms": (statistics.median(lat_ms), "ms"),
        "query_p90_ms": (pct[-1], "ms"),
        "peak_rss_mb": (phase["rss_mb"], "MB"),
        "answered_share": ((attempted - failed) / attempted, "share"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(plain: dict, traced: dict, probe_failed: int) -> dict:
    layers, passes = traced["layers"], traced["passes"]
    out = {}
    for name in tracing.SPAN_NAMES:
        out[f"{name}.calls"] = (layers["calls"].get(name, 0) / passes, "count")
        out[f"{name}.self_s"] = (layers["self_s"].get(name, 0.0) / passes, "s")
    bct_queries = layers["bct_queries"]
    out["graphs.block_cut_tree.calls_per_query"] = (
        layers["bct_calls"] / bct_queries if bct_queries else 0.0, "count")
    for name in ("graphs.perfect_matchings.matchings", "cactus.cactus_label.rejects"):
        out[name] = (layers["counts"].get(name, 0) / passes, "count")
    overhead = sum(best_latencies(traced)) - sum(best_latencies(plain))
    out["tracing.overhead_s"] = (overhead, "s")
    out["probe.failed"] = (probe_failed, "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="poly-100k, mixed-batch or oracle-hard (the last not in BENCHMARK.json)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "exactcolor" / "__init__.py").is_file():
        print(f"error: no exactcolor package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import exactcolor

    if Path(exactcolor.__file__).resolve().parent != (SRC / "exactcolor").resolve():
        print(f"error: imported exactcolor from {exactcolor.__file__}", file=sys.stderr)
        return 2
    import corpus as corpus_mod

    if args.workload not in corpus_mod.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # children write bytecode, so setup_s times imports from a warm cache
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        corpus = corpus_mod.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace == 0:
            setup_s = measure_setup(env, workdir)
            phases = [run_phase(corpus, args.seconds, False, env, with_probes=False,
                                min_passes=corpus.min_passes)]
        else:
            half = args.seconds / 2
            phases = [run_phase(corpus, half, False, env, with_probes=True, min_passes=1),
                      run_phase(corpus, half, True, env, with_probes=False, min_passes=1)]
    except (RunError, corpus_mod.CorpusDriftError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted, failed, wrong = judge_records(corpus, [r for p in phases for r in p["records"]])
    _, probe_failed, probe_wrong = judge_records(corpus, phases[0]["probes"])
    wrong += probe_wrong
    for line in wrong:
        print(f"WRONG: {line}", file=sys.stderr)

    if args.trace == 0:
        metrics = end_to_end(phases[0], attempted, failed, setup_s)
    else:
        metrics = per_layer(phases[0], phases[1], probe_failed)
    print(f"workload {args.workload}, seed {args.seed}: {attempted} queries, "
          f"{failed} failed, {len(wrong)} wrong, {phases[-1]['passes']} passes")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
