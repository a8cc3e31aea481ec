import random

import pytest

from exactcolor import (
    BadParameterError,
    Coloring,
    LiftContractViolatedError,
    NaeFormula,
    NotFourRegularError,
    ParseError,
    ReductionMap,
    brute_solve,
    build_graph,
    chromatic_number,
    complete,
    cycle,
    format_nae_formula,
    is_exact_coloring,
    is_proper,
    lift_solution,
    nae_satisfiable,
    octahedron,
    parse_nae_formula,
    path,
    read_graph,
    reduce_coloring_to_exact,
    reduce_increment_defect,
    reduce_nae3sat,
    reduce_planar_variant,
    star,
    tightness_gadget,
)

FIG1 = NaeFormula(4, ((0, 1, 2), (0, 2, 3)))


class TestNaeFormula:
    def test_parse_and_format_round_trip(self):
        text = "p nae 4 2\n1 2 3 0\n1 3 4 0\n"
        f = parse_nae_formula(text)
        assert f == FIG1
        assert parse_nae_formula(format_nae_formula(f)) == f

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("sep", [" ", "\t", "\x1c", "\xa0", " \t "])
    def test_line_breaks_and_separators_read_as_read_graph_reads_them(self, eol, sep):
        def forms(*lines):
            """The file as str and as the bytes a file read gives."""
            text = eol.join(sep.join(line.split()) for line in lines) + eol
            return text, text.encode()

        for data in forms("p nae 4 2", "1 2 3 0", "1 3 4 0"):
            assert parse_nae_formula(data) == FIG1
        for data in forms("p edge 3 2", "e 1 2", "e 2 3"):
            assert read_graph(data, "dimacs") == path(3)
        for data in forms("c by hand", "p nae 3 1", "1 2 x 0"):
            with pytest.raises(ParseError, match="^line 3: non-integer literal$"):
                parse_nae_formula(data)
        for data in forms("c by hand", "p edge 3 1", "e 1 x"):
            with pytest.raises(ParseError, match="^line 3: non-integer endpoint$"):
                read_graph(data, "dimacs")

    def test_bad_utf8_bytes_are_a_parse_error(self):
        with pytest.raises(ParseError, match="^line 2: not UTF-8 text$"):
            parse_nae_formula(b"p nae 3 1\n1 2 \xe9 0\n")

    def test_strict_rejects_repeats(self):
        text = "p nae 1 1\n1 1 1 0\n"
        assert parse_nae_formula(text).clauses == ((0, 0, 0),)
        with pytest.raises(ParseError):
            parse_nae_formula(text, strict=True)

    def test_degenerate_clause_unsatisfiable(self):
        # one variable three times can never be not-all-equal
        f = NaeFormula(1, ((0, 0, 0),))
        assert nae_satisfiable(f) is None
        target, _ = reduce_nae3sat(f)
        assert brute_solve(target, 2, 2) is None

    def test_nae_oracle(self):
        assert nae_satisfiable(FIG1) is not None
        # x or y or z with all three forced distinct-free: single clause is satisfiable
        assert nae_satisfiable(NaeFormula(3, ((0, 1, 2),))) is not None


class TestColoringToExact:
    def test_k3_d1_is_the_tightness_gadget(self):
        target, rmap = reduce_coloring_to_exact(complete(3), 3, 1)
        assert target == tightness_gadget()
        assert rmap.target_n == 6

    def test_k3_d2_size(self):
        target, _ = reduce_coloring_to_exact(complete(3), 3, 2)
        assert target.n == 9 and target.m == 3 + 3 * 3  # source triangle + 3 new triangles

    def test_size_formula(self):
        for d in (1, 2, 3):
            target, _ = reduce_coloring_to_exact(cycle(5), 3, d)
            assert target.n == 5 * (d + 1)
            assert target.m == 5 + 5 * (d + 1) * d // 2

    def test_round_trip_yes(self):
        target, rmap = reduce_coloring_to_exact(complete(3), 3, 1)
        w = brute_solve(target, 3, 1)
        assert w is not None
        lifted = lift_solution(rmap, w)
        assert is_proper(complete(3), lifted)

    def test_parameters_guarded(self):
        with pytest.raises(BadParameterError):
            reduce_coloring_to_exact(complete(3), 2, 1)
        with pytest.raises(BadParameterError):
            reduce_coloring_to_exact(complete(3), 3, 0)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize(
        "g,yes",
        [
            (complete(3), True),
            (complete(4), False),
            (cycle(5), True),
            (cycle(7), True),
            (star(5), True),
            (build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]), True),
        ],
        ids=["K3", "K4", "C5", "C7", "star5", "C4+chord"],
    )
    def test_equivalence_both_directions(self, g, yes, d):
        # source: 3-colorability; target: exact (3, d)-colorability
        assert (chromatic_number(g)[0] <= 3) == yes
        target, rmap = reduce_coloring_to_exact(g, 3, d)
        w = brute_solve(target, 3, d)
        assert (w is not None) == yes
        if yes:
            lifted = lift_solution(rmap, w)
            assert is_proper(g, lifted)


class TestPlanarVariant:
    def test_gadget_degrees(self):
        for d, expect_n in [(1, 12), (2, 18), (3, 24), (4, 36), (5, 72)]:
            target, _ = reduce_planar_variant(octahedron(), d)
            assert target.n == expect_n
            assert set(len(a) for a in target.adj) == {d, d + 4}

    def test_requires_four_regular(self):
        with pytest.raises(NotFourRegularError):
            reduce_planar_variant(complete(3), 1)
        with pytest.raises(BadParameterError):
            reduce_planar_variant(octahedron(), 6)

    def test_octahedron_is_yes_instance(self):
        # chi(octahedron) = 3, so the target admits an exact (3, d)-coloring
        target, rmap = reduce_planar_variant(octahedron(), 1)
        w = brute_solve(target, 3, 1)
        assert w is not None
        assert is_proper(octahedron(), lift_solution(rmap, w))

    def test_k5_is_no_instance(self):
        # K5 is 4-regular and not 3-colorable
        target, _ = reduce_planar_variant(complete(5), 1)
        assert brute_solve(target, 3, 1) is None


class TestIncrementDefect:
    def test_size_formula(self):
        target, _ = reduce_increment_defect(cycle(4), 1)
        assert target.n == 20

    def test_c4_round_trip(self):
        assert brute_solve(cycle(4), 2, 1) is not None
        target, rmap = reduce_increment_defect(cycle(4), 1)
        w = brute_solve(target, 2, 3)
        assert w is not None
        lifted = lift_solution(rmap, w)
        assert is_exact_coloring(cycle(4), lifted, 1)

    def test_c5_no_instance(self):
        assert brute_solve(cycle(5), 2, 1) is None
        target, _ = reduce_increment_defect(cycle(5), 1)
        assert brute_solve(target, 2, 3) is None

    @pytest.mark.parametrize(
        "g",
        [path(2), path(4), cycle(4), complete(4), star(4), path(3)],
        ids=["K2", "P4", "C4", "K4", "star4", "P3"],
    )
    def test_equivalence_both_directions(self, g):
        source_yes = brute_solve(g, 2, 1) is not None
        target, rmap = reduce_increment_defect(g, 1)
        w = brute_solve(target, 2, 3)
        assert (w is not None) == source_yes
        if source_yes:
            assert is_exact_coloring(g, lift_solution(rmap, w), 1)


class TestNae3Sat:
    def test_figure_instance_counts(self):
        target, _ = reduce_nae3sat(FIG1)
        assert target.n == 28  # 2 clause gadgets of 6, 4 variable C4s
        assert target.m == 48  # 2*13 + 4*4 + 6 connections

    def test_figure_instance_round_trip(self):
        assert nae_satisfiable(FIG1) is not None
        target, rmap = reduce_nae3sat(FIG1)
        w = brute_solve(target, 2, 2)
        assert w is not None
        truth = lift_solution(rmap, w)
        for clause in FIG1.clauses:
            values = [truth[x] for x in clause]
            assert any(values) and not all(values)

    def test_c3_gadget_equivalent(self):
        for f in (FIG1, NaeFormula(3, ((0, 1, 2),)), NaeFormula(1, ((0, 0, 0),))):
            t4, _ = reduce_nae3sat(f, variable_gadget="c4")
            t3, _ = reduce_nae3sat(f, variable_gadget="c3")
            yes = nae_satisfiable(f) is not None
            assert (brute_solve(t4, 2, 2) is not None) == yes
            assert (brute_solve(t3, 2, 2) is not None) == yes

    @pytest.mark.parametrize("seed", range(10))
    def test_random_formulas_equivalent(self, seed):
        rng = random.Random(seed)
        nv = rng.randint(3, 5)
        clauses = tuple(
            tuple(sorted(rng.sample(range(nv), 3))) for _ in range(rng.randint(1, 3))
        )
        f = NaeFormula(nv, clauses)
        target, rmap = reduce_nae3sat(f)
        yes = nae_satisfiable(f) is not None
        w = brute_solve(target, 2, 2)
        assert (w is not None) == yes
        if yes:
            truth = lift_solution(rmap, w)
            for clause in f.clauses:
                values = [truth[x] for x in clause]
                assert any(values) and not all(values)


class TestReductionMap:
    def test_provenance_total_and_typed(self):
        target, rmap = reduce_increment_defect(cycle(4), 1)
        assert len(rmap.provenance) == target.n
        kinds = {rec[0] for rec in rmap.provenance}
        assert kinds == {"original", "bridge", "inner"}

    @pytest.mark.parametrize(
        "build",
        [
            lambda: reduce_coloring_to_exact(cycle(5), 3, 2),
            lambda: reduce_increment_defect(cycle(4), 1),
            lambda: reduce_nae3sat(FIG1),
            lambda: reduce_planar_variant(octahedron(), 2),
        ],
        ids=["coloring", "increment", "nae3sat", "planar"],
    )
    def test_provenance_injective(self, build):
        target, rmap = build()
        assert len(rmap.provenance) == target.n
        assert len(set(rmap.provenance)) == target.n

    def test_json_round_trip(self):
        _, rmap = reduce_nae3sat(FIG1)
        back = ReductionMap.from_json(rmap.to_json())
        assert back.kind == rmap.kind
        assert back.provenance == rmap.provenance
        assert back.formula == rmap.formula
        _, rmap2 = reduce_coloring_to_exact(cycle(5), 3, 1)
        back2 = ReductionMap.from_json(rmap2.to_json())
        assert back2.source_graph == rmap2.source_graph

    def test_lift_rejects_bad_colorings(self):
        target, rmap = reduce_coloring_to_exact(complete(3), 3, 1)
        # monochromatic target coloring: gadgets fine but source improper
        with pytest.raises(LiftContractViolatedError):
            lift_solution(rmap, Coloring(3, (0,) * target.n))

    def test_lift_rejects_wrong_size(self):
        _, rmap = reduce_coloring_to_exact(complete(3), 3, 1)
        with pytest.raises(LiftContractViolatedError):
            lift_solution(rmap, Coloring(3, (0, 1, 2)))

    def test_random_round_trip_lifts(self):
        # twenty seeded tiny yes-instances lift back to valid source solutions
        rng = random.Random(7)
        done = 0
        seed = 0
        while done < 20:
            seed += 1
            nv = rng.randint(3, 4)
            f = NaeFormula(nv, (tuple(sorted(rng.sample(range(nv), 3))),))
            if nae_satisfiable(f) is None:
                continue
            target, rmap = reduce_nae3sat(f)
            w = brute_solve(target, 2, 2)
            assert w is not None
            lift_solution(rmap, w)  # raises on contract violation
            done += 1
