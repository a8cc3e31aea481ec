"""Command-line front end: solve, verify, generate, reduce.

Machine-readable output: ``solve`` prints one JSON report (schema in
docs/report-schema.json).  Exit codes: 0 = answered, 1 = usage or parse
error, 2 = unknown (budget exhausted), 3 = verify found the coloring
invalid.

The command line is read against one command table (``build_parser``,
built once at import) by ``parse_args``, without argparse, whose import
and parser build took about a third of a fresh process's startup.  A
usage error prints ``exactcolor <cmd>: error: ...`` and exits 1, so a
script can tell it from a search that ran out of budget (2).
"""

from __future__ import annotations

import gc
import json
import re
import sys
from types import SimpleNamespace
from typing import NamedTuple

from . import families
from .chromatic import DEFAULT_BUDGET
from .coloring import defects
from .errors import ExactColoringError
from .graph_io import load_graph, read_bytes, read_coloring, write_graph
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
    col = read_coloring(read_bytes(args.coloring), n=g.n)
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


def _check_reduction(decide_source, target, k, d, rmap) -> None:
    if target.n > _CHECK_CAP:
        raise ExactColoringError(
            f"--check needs a target with at most {_CHECK_CAP} vertices (got {target.n})"
        )
    source_yes = decide_source()  # only now, as the target passed the size cap
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
        f = parse_nae_formula(read_bytes(args.input), strict=args.strict)
        target, rmap = reduce_nae3sat(f, variable_gadget=args.gadget)
        decide_source = lambda: nae_satisfiable(f) is not None
        check_k, check_d = 2, 2
    else:
        g = load_graph(args.input, args.format)
        if args.construction == "coloring":
            target, rmap = reduce_coloring_to_exact(g, args.k, args.d)
            check_k, check_d, source = args.k, args.d, (0, args.k)
        elif args.construction == "planar":
            target, rmap = reduce_planar_variant(g, args.d)
            check_k, check_d, source = 3, args.d, (0, 3)
        else:  # increment; the table admits no other construction
            target, rmap = reduce_increment_defect(g, args.d)
            check_k, check_d, source = 2, args.d + 2, (args.d, 2, "brute")
        decide_source = lambda: _decide(g, *source).verdict == "yes"

    out_fmt = "edgelist" if args.construction == "nae3sat" else (args.format or "edgelist")
    _emit(write_graph(target, out_fmt), args.output, sys.stdout)
    _emit(rmap.to_json(), args.map or (args.output and args.output + ".map.json"), sys.stderr)
    if args.check:
        _check_reduction(decide_source, target, check_k, check_d, rmap)
    return EXIT_ANSWERED


class Opt(NamedTuple):
    """A positional (bare name) or an option (--name): value type (bool: a flag), default,
    choices, help.  A required option must be given, and exactly one of a command's one_of."""

    type: type = str
    default: object = None
    choices: tuple = ()
    required: bool = False
    one_of: bool = False
    help: str = ""


class Command:
    """A command's help and {positional or --option: Opt}, and what every parse reads off them."""

    def __init__(self, help: str, spec: dict):
        self.help, self.spec = help, spec
        self.defaults = {o.lstrip("-"): opt.default for o, opt in spec.items()}
        self.positionals = [p for p in spec if p[0] != "-"]
        self.required = [o for o, opt in spec.items() if opt.required]
        self.one_of = [o for o, opt in spec.items() if opt.one_of]


_FORMATS = ("edgelist", "dimacs")
_SHORT = {"-o": "--output", "-h": "--help"}
_is_option = re.compile(r"-(?!\d+$|\d*\.\d+$).").match  # "-x", "--x", "--"; not "-", "-1", "-.5"
_ABOUT = ("exactcolor: exact defective graph coloring: solvers, generators, hardness gadgets.\n"
          "exit codes: 0 answered, 1 usage or parse error, 2 unknown (budget), 3 invalid coloring")


def build_parser() -> dict:
    """The command table main parses with: name -> Command.

    Each value lands in args.<name without dashes>.  The table names no handler: main
    looks up cmd_<name> when it runs, so a rebound module attribute sees every call.
    """
    fmt, out = Opt(choices=_FORMATS, help="(default: sniffed)"), Opt(help="output file (also -o)")
    return {
        "solve": Command("compute chi_d or decide chi_d <= k", {
            "input": Opt(help="graph file"),
            "--d": Opt(int, required=True, help="exact defect per vertex"),
            "--k": Opt(int, one_of=True, help="decision: is chi_d <= k? (this or --chi)"),
            "--chi": Opt(bool, False, one_of=True, help="optimization: compute chi_d (or --k)"),
            "--algorithm": Opt(str, "auto", ALGORITHMS, help="see solver.ROUTES"),
            "--format": fmt,
            "--budget": Opt(int, DEFAULT_BUDGET, help="search node budget")}),
        "verify": Command("validate a coloring file against a graph", {
            "graph": Opt(help="graph file"), "coloring": Opt(help="k, then one color per line"),
            "--d": Opt(int, required=True, help="exact defect per vertex"), "--format": fmt}),
        "generate": Command("write a family graph as EDGELIST/DIMACS", {
            "family": Opt(help="|".join(f.replace("_", "-") for f in families.family_names())),
            "--n": Opt(int), "--m": Opt(int), "--seed": Opt(int, 0),
            "--p": Opt(float, 0.5, help="edge probability (random-graph)"),
            "--style": Opt(str, "mixed", ("mixed", "bridged", "shared", "petaled")),
            "--format": Opt(str, "edgelist", _FORMATS), "--output": out}),
        "reduce": Command("emit a hardness construction + provenance map", {
            "construction": Opt(choices=("coloring", "planar", "increment", "nae3sat")),
            "input": Opt(help="graph file, or formula file for nae3sat"),
            "--k": Opt(int, 3, help="colors (coloring construction)"),
            "--d": Opt(int, 1, help="defect parameter"),
            "--gadget": Opt(str, "c4", ("c4", "c3")),
            "--strict": Opt(bool, False, help="reject repeated clause variables"),
            "--format": fmt, "--output": out,
            "--map": Opt(help="write the JSON provenance map here"),
            "--check": Opt(bool, False, help="brute-force round-trip check")}),
    }


COMMANDS = build_parser()


def _help(name: str) -> str:
    command = COMMANDS[name]
    rows = [f"usage: exactcolor {name} {' '.join(command.positionals)} [options] [-h]",
            f"  {command.help}"]
    for o, opt in command.spec.items():
        arg = "{%s}" % ",".join(opt.choices) if opt.choices else (
            o[2:].upper() if o[0] == "-" and opt.type is not bool else "")
        default = "" if opt.default is None or opt.type is bool else f"(default: {opt.default})"
        notes = " ".join(filter(None, [opt.help, "(required)" if opt.required else "", default]))
        rows.append(f"    {o + ' ' + arg:<28} {notes}".rstrip())
    return "\n".join(rows)


def _value(name: str, opt: Opt, text: str):
    try:
        value = opt.type(text)
    except ValueError:
        raise ValueError(f"argument {name}: invalid {opt.type.__name__} value: {text!r}") from None
    if opt.choices and value not in opt.choices:
        raise ValueError(f"argument {name}: invalid choice: {text!r} "
                         f"(choose from {', '.join(opt.choices)})")
    return value


def parse_args(argv):
    """A namespace of argv read against COMMANDS, or the exit code after printing help or an error.

    The command comes first, then its positionals and options in any order.  An
    option is --name value, --name=value, or a unique prefix of --name (tried
    after the exact name); a value may be a negative number, and the last of a
    repeated option wins.  A rejected line prints "exactcolor <cmd>: error: ...".
    """
    name = argv[0] if argv else None
    if name not in COMMANDS:
        if name in ("-h", "--help"):
            print("\n\n".join([_ABOUT, *map(_help, COMMANDS)]))
            return EXIT_ANSWERED
        print(f"exactcolor: error: {f'invalid command {name!r}' if argv else 'no command'} "
              f"(choose from {', '.join(COMMANDS)})", file=sys.stderr)
        return EXIT_USAGE
    command = COMMANDS[name]
    spec, wanted, values = command.spec, command.positionals, dict(command.defaults)
    given, seen, tokens = [], [], iter(argv[1:])
    try:
        for token in tokens:
            if token == "--":
                given += tokens
            elif not _is_option(token):
                given.append(token)
            else:
                token, explicit, text = token.partition("=")
                o = _SHORT.get(token, token)
                if o not in spec and o != "--help":
                    found = [c for c in (*spec, "--help") if c[:2] == token[:2] == "--"
                             and c.startswith(token)]
                    if len(found) != 1:
                        raise ValueError(f"ambiguous option: {token} could match {', '.join(found)}"
                                         if found else f"unrecognized arguments: {token}")
                    o = found[0]
                if o == "--help":
                    print(_help(name))
                    return EXIT_ANSWERED
                opt = spec[o]
                if explicit and opt.type is bool:
                    raise ValueError(f"argument {o}: ignored explicit argument {text!r}")
                if not explicit and opt.type is not bool:
                    text = next(tokens, None)
                    if text is None or _is_option(text):
                        raise ValueError(f"argument {o}: expected one argument")
                values[o[2:]] = True if opt.type is bool else _value(o, opt, text)
                seen.append(o)
        missing = wanted[len(given):] + [o for o in command.required if o not in seen]
        if missing:
            raise ValueError(f"the following arguments are required: {', '.join(missing)}")
        if given[len(wanted):]:
            raise ValueError(f"unrecognized arguments: {' '.join(given[len(wanted):])}")
        picked = [o for o in command.one_of if o in seen]
        if command.one_of and not picked:
            raise ValueError(f"one of the arguments {' '.join(command.one_of)} is required")
        if picked[1:]:
            raise ValueError(f"argument {picked[1]}: not allowed with argument {picked[0]}")
        for p, text in zip(wanted, given):
            values[p] = _value(p, spec[p], text)
    except ValueError as exc:
        print(f"exactcolor {name}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return SimpleNamespace(command=name, **values)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if isinstance(args, int):  # the help, or a usage error, was printed
        return args
    # A command allocates millions of acyclic tuples and lists and leaves no
    # cyclic garbage that grows with the graph, so the cyclic collector would
    # only rescan them; it is paused for the command and then restored.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (OSError, ExactColoringError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
