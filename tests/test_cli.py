import gc
import json
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
        assert rep["algorithm"].startswith("closedform")
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


def test_a_corrupted_witness_is_an_error_not_an_answer(capsys, monkeypatch, cycle8_file):
    honest = xc.solver.chi_cycle

    def corrupted(n, d):
        out = honest(n, d)
        assign = (1 - out.witness.assign[0],) + out.witness.assign[1:]
        return xc.SolveOutcome.finite(out.chi, Coloring(out.witness.k, assign))

    monkeypatch.setattr(xc.solver, "chi_cycle", corrupted)
    code, out, err = run(capsys, "solve", "--d", "1", "--chi", cycle8_file)
    assert (code, out) == (1, "") and err.startswith("error: closedform:cycle returned a witness")
