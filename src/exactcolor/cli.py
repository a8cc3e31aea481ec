"""Command-line front end: solve, verify, generate, reduce.

Machine-readable output: ``solve`` prints one JSON report (schema in
docs/report-schema.json).  Exit codes: 0 = answered, 1 = usage or parse
error, 2 = unknown (budget exhausted), 3 = verify found the coloring
invalid.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys

from . import families
from .chromatic import DEFAULT_BUDGET
from .coloring import defects
from .errors import ExactColoringError
from .graph_io import load_graph, read_coloring, read_text, write_graph
from .reductions import (
    lift_solution,
    nae_satisfiable,
    parse_nae_formula,
    reduce_coloring_to_exact,
    reduce_increment_defect,
    reduce_nae3sat,
    reduce_planar_variant,
)
from .solver import ALGORITHMS, Report, solve

EXIT_ANSWERED = 0
EXIT_USAGE = 1
EXIT_UNKNOWN = 2
EXIT_INVALID = 3


def _emit(text: str, path: str | None, stream) -> None:
    """Write text to the file at path (LF newlines), or to stream when path is empty."""
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        stream.write(text)


def cmd_solve(args) -> int:
    # no name holds the graph, so it and the block-cut tree it keeps are freed before printing
    report = solve(load_graph(args.input, args.format), args.d, args.k, args.algorithm, args.budget)
    print(json.dumps(report.to_dict(), separators=(",", ":")))
    return EXIT_UNKNOWN if report.verdict == "unknown" else EXIT_ANSWERED


def cmd_verify(args) -> int:
    g = load_graph(args.graph, args.format)
    col = read_coloring(read_text(args.coloring), n=g.n)
    vec = defects(g, col)
    bad = [(v, x) for v, x in enumerate(vec) if x != args.d]
    if not bad:
        print(f"valid exact ({col.k}, {args.d})-coloring")
        return EXIT_ANSWERED
    for v, x in bad:
        print(f"vertex {v}: defect {x}, expected {args.d}")
    print(f"invalid: {len(bad)} of {g.n} vertices off target")
    return EXIT_INVALID


def cmd_generate(args) -> int:
    params = {name: getattr(args, name) for name in families.family_params(args.family)}
    missing = [name for name, value in params.items() if value is None]
    if missing:
        raise ExactColoringError(f"family {args.family} needs --{missing[0]}")
    g = families.gen_family(args.family, **params)
    _emit(write_graph(g, args.format), args.output, sys.stdout)
    return EXIT_ANSWERED


_CHECK_CAP = 40  # brute-force round-trip ceiling (target vertices)


def _decide(g, d, k, algorithm="auto") -> Report:
    """solve's decision on chi_d(g) <= k, its witness checked; an unknown verdict is an error."""
    report = solve(g, d, k, algorithm)
    if report.verdict == "unknown":
        raise ExactColoringError(f"--check gave up: {report.reason}")
    return report


def _check_reduction(source_yes, target, k, d, rmap) -> None:
    if target.n > _CHECK_CAP:
        raise ExactColoringError(
            f"--check needs a target with at most {_CHECK_CAP} vertices (got {target.n})"
        )
    witness = _decide(target, d, k, "brute").witness
    target_yes = witness is not None
    if source_yes != target_yes:
        raise ExactColoringError(
            f"round-trip failed: source {'YES' if source_yes else 'NO'}, "
            f"target {'YES' if target_yes else 'NO'}"
        )
    if target_yes:
        lift_solution(rmap, witness)
    print(
        f"check ok: source and target agree ({'YES' if source_yes else 'NO'})"
        + (", lifted solution verified" if target_yes else "")
    )


def cmd_reduce(args) -> int:
    if args.construction == "nae3sat":
        f = parse_nae_formula(read_text(args.input), strict=args.strict)
        target, rmap = reduce_nae3sat(f, variable_gadget=args.gadget)
        source_yes = nae_satisfiable(f) is not None
        check_k, check_d = 2, 2
    else:
        g = load_graph(args.input, args.format)
        # the source side of the round trip is only solved under --check
        if args.construction == "coloring":
            target, rmap = reduce_coloring_to_exact(g, args.k, args.d)
            check_k, check_d = args.k, args.d
            source_yes = args.check and _decide(g, 0, args.k).verdict == "yes"
        elif args.construction == "planar":
            target, rmap = reduce_planar_variant(g, args.d)
            check_k, check_d = 3, args.d
            source_yes = args.check and _decide(g, 0, 3).verdict == "yes"
        else:  # increment; argparse admits no other construction
            target, rmap = reduce_increment_defect(g, args.d)
            check_k, check_d = 2, args.d + 2
            source_yes = args.check and _decide(g, args.d, 2, "brute").verdict == "yes"

    out_fmt = "edgelist" if args.construction == "nae3sat" else (args.format or "edgelist")
    _emit(write_graph(target, out_fmt), args.output, sys.stdout)
    _emit(rmap.to_json(), args.map or (args.output and args.output + ".map.json"), sys.stderr)
    if args.check:
        _check_reduction(source_yes, target, check_k, check_d, rmap)
    return EXIT_ANSWERED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactcolor",
        description="Exact defective graph coloring: solvers, generators, hardness gadgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="compute chi_d or decide chi_d <= k")
    ps.add_argument("input", help="graph file")
    ps.add_argument("--d", type=int, required=True, help="exact defect per vertex")
    group = ps.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="decision: is chi_d <= k?")
    group.add_argument("--chi", action="store_true", help="optimization: compute chi_d")
    ps.add_argument("--algorithm", choices=ALGORITHMS, default="auto", help="see solver.ROUTES")
    ps.add_argument("--format", choices=["edgelist", "dimacs"], default=None)
    ps.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="search node budget")
    ps.set_defaults(func=cmd_solve)

    pv = sub.add_parser("verify", help="validate a coloring file against a graph")
    pv.add_argument("graph")
    pv.add_argument("coloring")
    pv.add_argument("--d", type=int, required=True)
    pv.add_argument("--format", choices=["edgelist", "dimacs"], default=None)
    pv.set_defaults(func=cmd_verify)

    pg = sub.add_parser("generate", help="write a family graph as EDGELIST/DIMACS")
    pg.add_argument(
        "family", help="|".join(name.replace("_", "-") for name in families.family_names())
    )
    pg.add_argument("--n", type=int, default=None)
    pg.add_argument("--m", type=int, default=None)
    pg.add_argument("--p", type=float, default=0.5, help="edge probability (random-graph)")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--style", choices=["mixed", "bridged", "shared", "petaled"], default="mixed")
    pg.add_argument("--format", choices=["edgelist", "dimacs"], default="edgelist")
    pg.add_argument("-o", "--output", default=None)
    pg.set_defaults(func=cmd_generate)

    pr = sub.add_parser("reduce", help="emit a hardness construction + provenance map")
    pr.add_argument("construction", choices=["coloring", "planar", "increment", "nae3sat"])
    pr.add_argument("input", help="graph file, or formula file for nae3sat")
    pr.add_argument("--k", type=int, default=3, help="colors (coloring construction)")
    pr.add_argument("--d", type=int, default=1, help="defect parameter")
    pr.add_argument("--gadget", choices=["c4", "c3"], default="c4")
    pr.add_argument("--strict", action="store_true", help="reject repeated clause variables")
    pr.add_argument("--format", choices=["edgelist", "dimacs"], default=None)
    pr.add_argument("-o", "--output", default=None)
    pr.add_argument("--map", default=None, help="write the JSON provenance map here")
    pr.add_argument("--check", action="store_true", help="brute-force round-trip check")
    pr.set_defaults(func=cmd_reduce)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on first use and kept for the process.

    parse_args only reads it: each call fills a new Namespace, and a usage
    error leaves through SystemExit without changing it.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # A command allocates millions of acyclic tuples and lists and leaves no
    # cyclic garbage that grows with the graph, so the cyclic collector would
    # only rescan them; it is paused for the command and then restored.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (OSError, ExactColoringError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
