import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import exactcolor as xc
from exactcolor import (
    Coloring,
    build_graph,
    is_exact_coloring,
    load_graph,
    read_graph,
    write_coloring,
    write_graph,
)
from exactcolor import cli
from exactcolor.chromatic import DEFAULT_BUDGET
from exactcolor.cli import main

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report-schema.json").read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def solve_report(capsys, *argv):
    code, out, _ = run(capsys, "solve", *argv)
    rep = json.loads(out)
    jsonschema.validate(rep, SCHEMA)
    return code, rep


def refuse_source(*_args, **_kwargs):
    raise AssertionError("the source of the reduction was decided")


def cycle_text(n, steps=(1,)):
    """EDGELIST of the circulant on n vertices joining i to i + s for each s in steps."""
    edges = [(i, (i + s) % n) for s in steps for i in range(n)]
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


@pytest.fixture()
def cycle8_file(tmp_path):
    p = tmp_path / "c8.txt"
    run_code = main(["generate", "cycle", "--n", "8", "-o", str(p)])
    assert run_code == 0
    return str(p)


class TestSolve:
    def test_cycle8_chi(self, capsys, cycle8_file):
        code, rep = solve_report(capsys, "--d", "1", "--chi", cycle8_file)
        assert code == 0
        assert rep["verdict"] == "yes" and rep["chi"] == 2
        assert rep["algorithm"] == "cactus"
        g = load_graph(cycle8_file)
        witness = Coloring(rep["witness"]["k"], tuple(rep["witness"]["assign"]))
        assert is_exact_coloring(g, witness, 1)

    def test_bowtie_decision_no(self, capsys, tmp_path, bowtie):
        p = tmp_path / "bowtie.txt"
        p.write_text(write_graph(bowtie))
        code, rep = solve_report(capsys, "--d", "2", "--k", "2", str(p))
        assert code == 0 and rep["verdict"] == "no"

    def test_path3_d3_infinite(self, capsys, tmp_path):
        p = tmp_path / "p3.txt"
        main(["generate", "path", "--n", "3", "-o", str(p)])
        code, rep = solve_report(capsys, "--d", "3", "--chi", str(p))
        assert code == 0 and rep["verdict"] == "infinite"
        assert rep["reason"] == "d exceeds min degree"

    def test_dimacs_input(self, capsys, tmp_path):
        p = tmp_path / "c6.col"
        main(["generate", "cycle", "--n", "6", "--format", "dimacs", "-o", str(p)])
        code, rep = solve_report(capsys, "--d", "2", "--chi", str(p), "--format", "dimacs")
        assert code == 0 and rep["chi"] == 1

    def test_chain_of_squares_and_c6_d1(self, capsys, tmp_path):
        # 17 four-cycles joined by bridges have 2^17 perfect matchings; the
        # disjoint C6 contracts to a triangle under every one of them
        edges = []
        for i in range(17):
            a = 4 * i
            edges += [(a, a + 1), (a + 1, a + 2), (a + 2, a + 3), (a + 3, a)]
            if i:
                edges.append((a - 2, a))
        edges += [(68 + j, 68 + (j + 1) % 6) for j in range(6)]
        g = build_graph(74, edges)
        p = tmp_path / "squares.txt"
        p.write_text(write_graph(g))
        code, rep = solve_report(capsys, "--d", "1", "--chi", str(p))
        assert code == 0 and (rep["verdict"], rep["chi"], rep["algorithm"]) == ("yes", 3, "cactus")
        witness = Coloring(rep["witness"]["k"], tuple(rep["witness"]["assign"]))
        assert witness.k == 3 and is_exact_coloring(g, witness, 1)
        code, rep = solve_report(capsys, "--d", "1", "--k", "2", str(p))
        assert code == 0 and rep["verdict"] == "no"

    def test_parse_error_exit_1(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("not a graph\n")
        code, _, err = run(capsys, "solve", "--d", "1", "--chi", str(p))
        assert code == 1 and "error" in err

    def test_negative_defect_exit_1(self, capsys, cycle8_file):
        code, out, err = run(capsys, "solve", "--d", "-1", "--chi", cycle8_file)
        assert (code, out) == (1, "")
        assert err == "error: defect must be nonnegative\n"

    @pytest.mark.parametrize("flag,what", [
        (("--k", "-1"), "color count"), (("--budget", "-5", "--chi"), "budget"),
    ])
    def test_negative_k_or_budget_exit_1(self, capsys, cycle8_file, flag, what):
        code, out, err = run(capsys, "solve", "--d", "1", *flag, cycle8_file)
        assert (code, out) == (1, "")
        assert err == f"error: {what} must be nonnegative\n"

    def test_long_odd_cycle_d0_exit_0(self, capsys, tmp_path):
        p = tmp_path / "c1001.txt"
        assert main(["generate", "cycle", "--n", "1001", "-o", str(p)]) == 0
        code, rep = solve_report(capsys, "--d", "0", "--chi", str(p))
        assert (code, rep["verdict"], rep["chi"]) == (0, "yes", 3)

    def test_non_utf8_file_exit_1(self, capsys, tmp_path):
        p = tmp_path / "latin1.txt"
        p.write_bytes(b"3 2\n0 1\n1 2 \xe9\n")
        code, out, err = run(capsys, "solve", "--d", "1", "--chi", str(p))
        assert (code, out) == (1, "")
        assert err == "error: line 3: not UTF-8 text\n"

    def test_dimacs_endpoint_above_n_exit_1(self, capsys, tmp_path):
        p = tmp_path / "g.dimacs"
        p.write_text("p edge 5 1\ne 5 6\n")
        code, out, err = run(capsys, "solve", "--d", "1", "--chi", str(p), "--format", "dimacs")
        assert (code, out) == (1, "")
        assert err == "error: line 2: vertex 6 exceeds n = 5\n"

    def test_directory_path_exit_1(self, capsys, tmp_path):
        code, out, err = run(capsys, "solve", "--d", "1", "--chi", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_budget_exhaustion_exit_2(self, capsys, tmp_path):
        p = tmp_path / "pet.txt"
        main(["generate", "petersen", "-o", str(p)])
        code, rep = solve_report(
            capsys, "--d", "1", "--chi", str(p), "--algorithm", "brute", "--budget", "5"
        )
        assert code == 2 and rep["verdict"] == "unknown"
        assert rep["reason"] == "node budget exhausted (after 5 nodes)"
        _, rep = solve_report(capsys, "--d", "1", "--chi", str(p), "--budget", "5")
        assert rep["verdict"] == "unknown" and rep["algorithm"] == "brute"

    def test_deep_search_budget_exhaustion_exit_2(self, capsys, tmp_path):
        # the ladder P_1000 x K2 reaches the oracle, whose search is 2000 vertices deep
        rail = [(i, i + 1) for i in range(999)]
        rungs = [(i, i + 1000) for i in range(1000)]
        ladder = build_graph(2000, rail + [(u + 1000, v + 1000) for u, v in rail] + rungs)
        p = tmp_path / "ladder.txt"
        p.write_text(write_graph(ladder))
        code, rep = solve_report(capsys, "--d", "1", "--chi", str(p), "--budget", "100000")
        assert code == 2 and rep["verdict"] == "unknown" and rep["algorithm"] == "brute"
        assert rep["reason"] == "node budget exhausted (after 100000 nodes)"

    @pytest.mark.parametrize(
        "family,n,d,algorithm",
        [
            ("petersen", None, 1, "closedform"),
            ("complete", 4, 2, "cactus"),
            ("cycle", 6, 3, "cactus"),
            ("complete", 4, 0, "blockgraph"),
        ],
    )
    def test_forced_route_errors_exit_1(self, capsys, tmp_path, family, n, d, algorithm):
        p = tmp_path / "g.txt"
        main(["generate", family, "-o", str(p)] + ([] if n is None else ["--n", str(n)]))
        code, out, err = run(
            capsys, "solve", "--d", str(d), "--chi", str(p), "--algorithm", algorithm
        )
        assert code == 1 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("family,n,d", [("cycle", 9, 1), ("complete", 6, 2), ("star", 5, 1)])
    def test_auto_matches_brute(self, capsys, tmp_path, family, n, d):
        p = tmp_path / "g.txt"
        main(["generate", family, "--n", str(n), "-o", str(p)])
        _, auto_rep = solve_report(capsys, "--d", str(d), "--chi", str(p))
        _, brute_rep = solve_report(
            capsys, "--d", str(d), "--chi", str(p), "--algorithm", "brute"
        )
        assert auto_rep["verdict"] == brute_rep["verdict"]
        assert auto_rep["chi"] == brute_rep["chi"]


class TestVerify:
    def test_round_trip_from_solve(self, capsys, cycle8_file, tmp_path):
        _, rep = solve_report(capsys, "--d", "1", "--chi", cycle8_file)
        col = tmp_path / "w.col"
        col.write_text(
            write_coloring(Coloring(rep["witness"]["k"], tuple(rep["witness"]["assign"])))
        )
        code, out, _ = run(capsys, "verify", cycle8_file, str(col), "--d", "1")
        assert code == 0 and "valid" in out

    def test_monochromatic_c5(self, capsys, tmp_path):
        g = tmp_path / "c5.txt"
        main(["generate", "cycle", "--n", "5", "-o", str(g)])
        col = tmp_path / "mono.col"
        col.write_text("1\n0\n0\n0\n0\n0\n")
        code, _, _ = run(capsys, "verify", str(g), str(col), "--d", "2")
        assert code == 0
        code, out, _ = run(capsys, "verify", str(g), str(col), "--d", "1")
        assert code == 3
        assert out.count("expected 1") == 5


class TestGenerate:
    def test_petersen(self, capsys):
        code, out, _ = run(capsys, "generate", "petersen")
        assert code == 0
        g = read_graph(out)
        assert g.n == 10 and g.m == 15

    def test_random_cactus_deterministic(self, capsys):
        _, a, _ = run(capsys, "generate", "random-cactus", "--n", "12", "--seed", "7")
        _, b, _ = run(capsys, "generate", "random-cactus", "--n", "12", "--seed", "7")
        assert a == b

    def test_cartesian_product(self, capsys):
        _, out, _ = run(capsys, "generate", "cartesian-k2-complete", "--m", "4")
        g = read_graph(out)
        assert g.n == 8 and all(g.degree(v) == 4 for v in range(8))

    @pytest.mark.parametrize("name", xc.family_names())
    @pytest.mark.parametrize("fmt", ["edgelist", "dimacs"])
    def test_every_family_prints_what_gen_family_builds(self, capsys, name, fmt):
        values = {"n": 9, "m": 4, "p": 0.3, "seed": 5, "style": "petaled"}
        flags = [f for key, value in values.items() for f in (f"--{key}", str(value))]
        code, out, err = run(capsys, "generate", name.replace("_", "-"), *flags, "--format", fmt)
        params = {key: values[key] for key in xc.families.family_params(name)}
        assert (code, out, err) == (0, write_graph(xc.gen_family(name, **params), fmt), "")

    @pytest.mark.parametrize("family,flag", [
        ("random-graph", "n"), ("random-cactus", "n"), ("random-block-graph", "n"),
        ("cycle", "n"), ("cartesian-k2-complete", "m"),
    ])
    def test_family_without_size_exit_1(self, capsys, family, flag):
        code, out, err = run(capsys, "generate", family)
        assert (code, out) == (1, "")
        assert err == f"error: family {family} needs --{flag}\n"

    @pytest.mark.parametrize("p", ["2.5", "-0.1", "nan"])
    def test_random_graph_p_outside_0_1_exit_1(self, capsys, p):
        code, out, err = run(capsys, "generate", "random-graph", "--n", "5", "--p", p)
        assert (code, out) == (1, "")
        assert err == "error: random_graph needs 0 <= p <= 1\n"

    def test_unknown_family_exit_1(self, capsys):
        code, _, err = run(capsys, "generate", "moebius", "--n", "5")
        assert code == 1 and "error" in err


class TestReduce:
    def test_nae3sat_writes_graph_and_map(self, capsys, tmp_path):
        nae = tmp_path / "f.nae"
        nae.write_text("p nae 4 2\n1 2 3 0\n1 3 4 0\n")
        out_g = tmp_path / "g.txt"
        code, _, _ = run(capsys, "reduce", "nae3sat", str(nae), "-o", str(out_g), "--check")
        assert code == 0
        g = load_graph(str(out_g))
        assert g.n == 28
        payload = json.loads((tmp_path / "g.txt.map.json").read_text())
        assert payload["kind"] == "nae3sat" and payload["target_n"] == 28

    def test_nae3sat_non_integer_header_exit_1(self, capsys, tmp_path):
        nae = tmp_path / "f.nae"
        nae.write_text("p nae x 1\n1 2 3 0\n")
        code, out, err = run(capsys, "reduce", "nae3sat", str(nae), "-o", str(tmp_path / "g.txt"))
        assert (code, out) == (1, "")
        assert err == "error: line 1: non-integer in header\n"

    def test_coloring_check(self, capsys, tmp_path):
        src = tmp_path / "k3.txt"
        main(["generate", "complete", "--n", "3", "-o", str(src)])
        code, out, _ = run(
            capsys, "reduce", "coloring", str(src), "--k", "3", "--d", "1", "--check",
            "-o", str(tmp_path / "out.txt"),
        )
        assert code == 0 and "check ok" in out

    def test_increment_no_instance_check(self, capsys, tmp_path):
        src = tmp_path / "c5.txt"
        main(["generate", "cycle", "--n", "5", "-o", str(src)])
        code, out, _ = run(
            capsys, "reduce", "increment", str(src), "--d", "1", "--check",
            "-o", str(tmp_path / "out.txt"),
        )
        assert code == 0 and "NO" in out

    @pytest.mark.parametrize("construction,text", [
        ("coloring", "5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n"),   # the source search gives up
        ("nae3sat", "p nae 4 2\n1 2 3 0\n1 3 4 0\n"),      # the target search gives up
    ])
    def test_check_that_gives_up_exit_1(self, capsys, tmp_path, monkeypatch, construction, text):
        src = tmp_path / "in.txt"
        src.write_text(text)
        real = cli.solve
        monkeypatch.setattr(cli, "solve", lambda g, d, k, algorithm="auto": real(g, d, k, algorithm, 0))
        code, _, err = run(
            capsys, "reduce", construction, str(src), "--check", "-o", str(tmp_path / "out.txt"),
        )
        assert code == 1
        assert err.endswith("error: --check gave up: node budget exhausted (after 0 nodes)\n")

    def test_plain_nae3sat_decides_no_formula(self, capsys, tmp_path, monkeypatch):
        # the 2^vars search over the formula runs only under --check
        monkeypatch.setattr(cli, "nae_satisfiable", refuse_source)
        nae = tmp_path / "f.nae"
        nae.write_text("p nae 4 2\n1 2 3 0\n1 3 4 0\n")
        out_g = tmp_path / "g.txt"
        code, _, _ = run(capsys, "reduce", "nae3sat", str(nae), "-o", str(out_g))
        assert code == 0 and load_graph(str(out_g)).n == 28
        assert json.loads((tmp_path / "g.txt.map.json").read_text())["target_n"] == 28

    @pytest.mark.parametrize("construction,source,target_n", [
        ("nae3sat", "p nae 6 3\n1 2 3 0\n4 5 6 0\n1 4 6 0\n", 42),
        ("coloring", cycle_text(25), 50),
        ("planar", cycle_text(21, (1, 2)), 42),
        ("increment", cycle_text(30), 150),
    ], ids=["nae3sat", "coloring", "planar", "increment"])
    def test_check_cap_comes_before_the_source_decision(
        self, capsys, tmp_path, monkeypatch, construction, source, target_n
    ):
        monkeypatch.setattr(cli, "nae_satisfiable", refuse_source)
        monkeypatch.setattr(cli, "solve", refuse_source)
        src = tmp_path / "in.txt"
        src.write_text(source)
        out_g = tmp_path / "out.txt"
        code, out, err = run(capsys, "reduce", construction, str(src), "--check", "-o", str(out_g))
        assert (code, out) == (1, "")
        assert err == f"error: --check needs a target with at most 40 vertices (got {target_n})\n"
        # the target and its map are written before the check, as without it
        assert load_graph(str(out_g)).n == target_n
        assert json.loads((tmp_path / "out.txt.map.json").read_text())["target_n"] == target_n

    def test_check_cap(self, capsys, tmp_path):
        src = tmp_path / "big.txt"
        main(["generate", "cycle", "--n", "30", "-o", str(src)])
        code, _, err = run(
            capsys, "reduce", "increment", str(src), "--d", "1", "--check",
            "-o", str(tmp_path / "out.txt"),
        )
        assert code == 1 and "at most" in err


class TestAutoDispatch:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_auto_never_disagrees_with_brute(self, d):
        # the dispatcher must give the same verdict as plain brute force on
        # every graph class it special-cases
        import exactcolor as xc

        corpus = [
            xc.cycle(8), xc.cycle(9), xc.wheel(6), xc.wheel(7), xc.path(6),
            xc.complete(6), xc.star(5), xc.petersen(),
            xc.cartesian_k2_complete(4), xc.categorical_k2_complete(4),
            xc.tightness_gadget(),
        ]
        corpus += [xc.random_cactus(10, seed=s, style="mixed") for s in range(4)]
        corpus += [xc.random_block_graph(10, seed=s) for s in range(4)]
        corpus += [xc.random_graph(8, p=0.4, seed=s) for s in range(4)]
        for g in corpus:
            rep = xc.solve(g, d)
            ref = xc.brute_chi(g, d)
            assert (rep.chi, rep.verdict == "infinite") == (ref.chi, ref.is_infeasible), (
                f"dispatch to {rep.algorithm} disagrees with brute on {g} at d={d}"
            )
            if rep.chi is not None and rep.witness is not None:
                assert is_exact_coloring(g, rep.witness, d)

    def test_wheel_dispatch(self, capsys, tmp_path):
        p = tmp_path / "w6.txt"
        main(["generate", "wheel", "--n", "6", "-o", str(p)])
        _, rep = solve_report(capsys, "--d", "1", "--chi", str(p))
        assert rep["algorithm"] == "closedform:wheel" and rep["chi"] == 3

    def test_cactus_and_blockgraph_dispatch(self, capsys, tmp_path):
        import exactcolor as xc

        p = tmp_path / "cac.txt"
        main(["generate", "random-cactus", "--n", "40", "--seed", "2", "--style", "petaled", "-o", str(p)])
        _, rep = solve_report(capsys, "--d", "2", "--chi", str(p))
        assert rep["algorithm"] == "cactus" and rep["chi"] == 2
        # a chain of K4 blocks is a block graph but not a cactus, so it
        # routes to the factor solver
        edges = []
        for t in range(4):
            a = 4 * t
            edges += [(a + i, a + j) for i in range(4) for j in range(i + 1, 4)]
            if t:
                edges.append((a - 1, a))
        chain = xc.build_graph(16, edges)
        p2 = tmp_path / "blk.txt"
        p2.write_text(write_graph(chain))
        _, rep2 = solve_report(capsys, "--d", "3", "--chi", str(p2))
        assert rep2["algorithm"] == "blockgraph" and rep2["chi"] == 2


class TestReportSchema:
    @pytest.mark.parametrize(
        "family,n,d,mode",
        [
            ("cycle", 8, 1, "--chi"),
            ("cycle", 7, 1, "--chi"),
            ("complete", 5, 1, "--chi"),
            ("petersen", None, 1, "--chi"),
        ],
    )
    def test_reports_validate(self, capsys, tmp_path, family, n, d, mode):
        p = tmp_path / "g.txt"
        argv = ["generate", family, "-o", str(p)]
        if n is not None:
            argv[2:2] = ["--n", str(n)]
        main(argv)
        _, rep = solve_report(capsys, "--d", str(d), mode, str(p))
        # every reported witness verifies at the reported parameters
        if rep["witness"] is not None:
            g = load_graph(str(p))
            witness = Coloring(rep["witness"]["k"], tuple(rep["witness"]["assign"]))
            assert is_exact_coloring(g, witness, d)


class TestCollector:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_restores_the_collector_state(self, capsys, tmp_path, cycle8_file, enabled):
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert run(capsys, "solve", "--d", "1", "--chi", cycle8_file)[0] == 0
            assert gc.isenabled() is enabled
            code, _, err = run(capsys, "solve", "--d", "1", "--chi", str(tmp_path / "missing.txt"))
            assert code == 1 and err.startswith("error:")
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_a_solve_leaves_no_garbage_that_grows_with_the_graph(self, capsys, tmp_path):
        def garbage(n):
            p = tmp_path / f"cactus{n}.txt"
            p.write_text(write_graph(xc.random_cactus(n, seed=1)))
            gc.collect()
            assert run(capsys, "solve", "--d", "2", "--chi", str(p))[0] == 0
            return gc.collect()

        small = garbage(4)
        assert garbage(10**4) <= small


class TestParserReuse:
    """main parses against one command table; a call leaves nothing behind for the next."""

    def test_options_of_one_call_do_not_reach_the_next(self, capsys, tmp_path, cycle8_file):
        pet = tmp_path / "pet.txt"
        main(["generate", "petersen", "-o", str(pet)])
        defaults = dict(cli.COMMANDS["solve"].defaults)
        args = cli.parse_args(["solve", "--d", "1", "--chi", str(pet),
                               "--algorithm", "brute", "--budget", "5"])
        assert (args.algorithm, args.budget) == ("brute", 5)
        args = cli.parse_args(["solve", "--d", "1", "--chi", str(pet)])
        assert (args.algorithm, args.budget, args.k) == ("auto", DEFAULT_BUDGET, None)
        assert cli.COMMANDS["solve"].defaults == defaults

        code, rep = solve_report(capsys, "--d", "1", "--chi", cycle8_file,
                                 "--algorithm", "brute", "--budget", "5")
        assert (code, rep["verdict"], rep["algorithm"]) == (2, "unknown", "brute")
        code, rep = solve_report(capsys, "--d", "1", "--chi", cycle8_file)
        assert (code, rep["chi"], rep["algorithm"]) == (0, 2, "cactus")
        # Petersen needs 593 nodes at d = 1: the default budget answers, 5 would not
        solve_report(capsys, "--d", "1", "--chi", str(pet), "--algorithm", "brute", "--budget", "5")
        code, rep = solve_report(capsys, "--d", "1", "--chi", str(pet))
        assert (code, rep["verdict"], rep["chi"]) == (0, "yes", 5)

    def test_a_usage_error_leaves_the_parser_working(self, capsys, cycle8_file):
        code, out, err = run(capsys, "solve", "--d", "1", cycle8_file)  # neither --k nor --chi
        assert (code, out) == (1, "")
        assert err == "exactcolor solve: error: one of the arguments --k --chi is required\n"
        code, rep = solve_report(capsys, "--d", "1", "--chi", cycle8_file)
        assert (code, rep["verdict"], rep["chi"]) == (0, "yes", 2)
        code, rep = solve_report(capsys, "--d", "1", "--k", "1", cycle8_file)
        assert (code, rep["verdict"], rep["chi"]) == (0, "no", 2)

    def test_k_and_chi_stay_mutually_exclusive(self, capsys, cycle8_file):
        for _ in range(2):
            code, out, err = run(capsys, "solve", "--d", "1", "--k", "2", "--chi", cycle8_file)
            assert (code, out) == (1, "")
            assert err == "exactcolor solve: error: argument --chi: not allowed with argument --k\n"
            code, rep = solve_report(capsys, "--d", "1", "--k", "2", cycle8_file)
            assert (code, rep["verdict"]) == (0, "yes")


class TestCommandTable:
    """Every form argparse read, read the same way from the table, and every line it rejected."""

    @pytest.mark.parametrize("argv,expect", [
        (["solve", "g.txt", "--d", "1", "--chi"],
         {"input": "g.txt", "d": 1, "k": None, "chi": True, "algorithm": "auto", "format": None,
          "budget": DEFAULT_BUDGET}),
        (["solve", "--d=2", "--k=3", "g.txt"], {"input": "g.txt", "d": 2, "k": 3, "chi": False}),
        (["solve", "--d", "-1", "--chi", "g.txt"], {"d": -1}),
        (["solve", "g.txt", "--d", "1", "--k", "-2", "--budget", "-5"], {"k": -2, "budget": -5}),
        (["solve", "g.txt", "--d", "1", "--chi", "--alg", "brute", "--bud=7", "--form", "dimacs"],
         {"algorithm": "brute", "budget": 7, "format": "dimacs"}),
        (["solve", "g.txt", "--d", "1", "--d", "3", "--k", "2", "--k", "4",
          "--algorithm", "cactus", "--algorithm", "brute"], {"d": 3, "k": 4, "algorithm": "brute"}),
        (["solve", "--d", "0", "--chi", "--", "-g.txt"], {"input": "-g.txt"}),
        (["solve", "-", "--d", "0", "--chi"], {"input": "-"}),
        (["verify", "g.txt", "c.col", "--d", "2"],
         {"graph": "g.txt", "coloring": "c.col", "d": 2, "format": None}),
        (["verify", "--format", "dimacs", "--d", "0", "g.col", "c.col"],
         {"graph": "g.col", "coloring": "c.col", "d": 0, "format": "dimacs"}),
        (["generate", "cycle", "--n", "8", "-o", "c8.txt"],
         {"family": "cycle", "n": 8, "m": None, "p": 0.5, "seed": 0, "style": "mixed",
          "format": "edgelist", "output": "c8.txt"}),
        (["generate", "random-graph", "--n=5", "--p", "-0.1", "--seed", "-3", "--output=x.txt"],
         {"n": 5, "p": -0.1, "seed": -3, "output": "x.txt"}),
        (["generate", "random-cactus", "--sty", "petaled", "--p", "-.25", "-o=y", "--n", "+3"],
         {"style": "petaled", "p": -0.25, "output": "y", "n": 3}),
        (["reduce", "nae3sat", "f.nae", "--strict", "--check", "--gadget", "c3", "--map", "m.json"],
         {"construction": "nae3sat", "input": "f.nae", "strict": True, "check": True,
          "gadget": "c3", "map": "m.json", "k": 3, "d": 1, "output": None, "format": None}),
        (["reduce", "--check", "--k", "4", "coloring", "g.txt", "--d", "2", "-o", "out.txt"],
         {"construction": "coloring", "input": "g.txt", "check": True, "strict": False, "k": 4,
          "d": 2, "output": "out.txt"}),
    ])
    def test_argv_parses_to(self, argv, expect):
        args = vars(cli.parse_args(argv))
        names = {name.lstrip("-") for name in cli.COMMANDS[argv[0]].spec}
        assert set(args) == {"command"} | names
        assert args["command"] == argv[0]
        assert {key: args[key] for key in expect} == expect

    @pytest.mark.parametrize("argv,error", [
        ([], "exactcolor: error: no command (choose from solve, verify, generate, reduce)"),
        (["frobnicate"], "exactcolor: error: invalid command 'frobnicate'"),
        (["--d", "1", "solve"], "exactcolor: error: invalid command '--d'"),
        (["solve", "g.txt", "--chi"], "the following arguments are required: --d"),
        (["solve", "--d", "1", "--chi"], "the following arguments are required: input"),
        (["verify", "--d", "1"], "the following arguments are required: graph, coloring"),
        (["solve", "g.txt", "--chi", "--d"], "argument --d: expected one argument"),
        (["solve", "g.txt", "--d", "--chi"], "argument --d: expected one argument"),
        (["generate", "cycle", "--n", "--m", "3"], "argument --n: expected one argument"),
        (["solve", "g.txt", "--d", "x", "--chi"], "argument --d: invalid int value: 'x'"),
        (["solve", "g.txt", "--d", "1.5", "--chi"], "argument --d: invalid int value: '1.5'"),
        (["solve", "g.txt", "--d=", "--chi"], "argument --d: invalid int value: ''"),
        (["generate", "random-graph", "--p", "half"], "argument --p: invalid float value: 'half'"),
        (["solve", "g.txt", "--d", "1"], "one of the arguments --k --chi is required"),
        (["solve", "g.txt", "--d", "1", "--chi", "--k", "2"],
         "argument --chi: not allowed with argument --k"),
        (["solve", "g.txt", "--d", "1", "--chi", "--algorithm", "magic"],
         "argument --algorithm: invalid choice: 'magic' (choose from auto, closedform, cactus, "
         "blockgraph, brute)"),
        (["reduce", "sat", "f.txt"], "argument construction: invalid choice: 'sat'"),
        (["generate", "star", "--style", "fancy"], "argument --style: invalid choice: 'fancy'"),
        (["solve", "a.txt", "b.txt", "--d", "1", "--chi"], "unrecognized arguments: b.txt"),
        (["solve", "g.txt", "--d", "1", "--chi", "--verbose"], "unrecognized arguments: --verbose"),
        (["solve", "g.txt", "--d", "1", "--chi", "-o", "x"], "unrecognized arguments: -o"),
        (["generate", "cycle", "--s", "1"], "ambiguous option: --s could match --seed, --style"),
        (["solve", "g.txt", "--d", "1", "--chi=yes"],
         "argument --chi: ignored explicit argument 'yes'"),
    ])
    def test_malformed_argv_exits_1_with_one_error_line(self, capsys, argv, error):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and error in err and "Traceback" not in err
        prog = f"exactcolor {argv[0]}" if argv and argv[0] in cli.COMMANDS else "exactcolor"
        assert err.startswith(f"{prog}: error: ")

    @pytest.mark.parametrize("argv", [["--help"], ["-h"]])
    def test_program_help_names_every_command_and_option(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        for name, command in cli.COMMANDS.items():
            assert f"exactcolor {name} " in out
            assert all(option in out for option in command.spec)
        assert "1 usage or parse error" in out

    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    @pytest.mark.parametrize("flag", ["--help", "-h", "--he"])
    def test_command_help_names_every_option(self, capsys, name, flag):
        code, out, err = run(capsys, name, flag)
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: exactcolor {name} ")
        assert all(f"    {option}" in out for option in cli.COMMANDS[name].spec)

    def test_help_wins_over_a_missing_option(self, capsys):
        code, out, _ = run(capsys, "solve", "g.txt", "-h")
        assert code == 0 and "--budget" in out

    def test_main_finds_the_handler_when_it_runs(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "cmd_solve", lambda args: calls.append(args) or 7)
        assert main(["solve", "g.txt", "--d", "1", "--chi"]) == 7
        assert [args.input for args in calls] == ["g.txt"]

    def test_importing_the_cli_loads_no_argparse(self):
        code = "import sys, exactcolor.cli; print('argparse' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def test_a_corrupted_witness_is_an_error_not_an_answer(capsys, monkeypatch, cycle8_file):
    honest = xc.solver.cactus_chi1

    def corrupted(g):
        out = honest(g)
        assign = (1 - out.witness.assign[0],) + out.witness.assign[1:]
        return xc.SolveOutcome.finite(out.chi, Coloring(out.witness.k, assign))

    monkeypatch.setattr(xc.solver, "cactus_chi1", corrupted)
    code, out, err = run(capsys, "solve", "--d", "1", "--chi", cycle8_file)
    assert (code, out) == (1, "") and err.startswith("error: cactus returned a witness")
