import pytest

from exactcolor import (
    BudgetExceededError,
    brute_chi,
    brute_solve,
    build_graph,
    chi_via_quotients,
    chromatic_number,
    clique_lower_bound,
    complete,
    connected_components,
    cycle,
    enumerate_regular_partitions,
    is_exact_coloring,
    path,
    perfect_matchings,
    petersen,
    random_graph,
    tightness_gadget,
    wheel,
)
from exactcolor.chromatic import _Budget
from conftest import exact_coloring_exists_naive, regular_partitions_filter


def spent(fn, g, *args):
    """fn's answer and the nodes it spent."""
    b = _Budget(10**6)
    out = fn(g, *args, b)
    return out, b.nodes - b.left


class TestBruteSolve:
    def test_cycle8_k2_d1_yes(self):
        w = brute_solve(cycle(8), 2, 1)
        assert w is not None and is_exact_coloring(cycle(8), w, 1)

    def test_cycle6_k2_d1_no(self):
        assert brute_solve(cycle(6), 2, 1) is None

    def test_petersen_extremal(self):
        assert brute_solve(petersen(), 4, 1) is None
        w = brute_solve(petersen(), 5, 1)
        assert w is not None and is_exact_coloring(petersen(), w, 1)

    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_naive_enumeration(self, seed):
        # 25 random G(n <= 7, p) per seed, 300 in all.  With d >= 1 a class
        # has at least two vertices, so on 7 vertices three colors are enough
        # whenever an exact coloring exists, and brute_chi is the smallest.
        for i in range(25):
            s = 25 * seed + i
            g = random_graph(1 + s % 7, p=0.2 + 0.6 * (s % 5) / 4, seed=s)
            for d in (1, 2, 3):
                naive = [exact_coloring_exists_naive(g, k, d) for k in (1, 2, 3)]
                assert [brute_solve(g, k, d) is not None for k in (1, 2, 3)] == naive, (s, d)
                out = brute_chi(g, d)
                if True in naive:
                    assert out.chi == naive.index(True) + 1, (s, d)
                else:
                    assert out.is_infeasible, (s, d)

    @pytest.mark.parametrize("seed", range(8))
    def test_monotone_in_k(self, seed):
        g = random_graph(7, p=0.5, seed=40 + seed)
        for d in (1, 2):
            answers = [brute_solve(g, k, d) is not None for k in range(1, 8)]
            # once yes, always yes: unused classes are empty and vacuously fine
            assert answers == sorted(answers)

    def test_budget_raises(self):
        with pytest.raises(BudgetExceededError):
            brute_solve(petersen(), 5, 1, budget=3)


class TestBruteChi:
    def test_complete_graphs(self):
        assert brute_chi(complete(6), 1).chi == 3
        assert brute_chi(complete(5), 1).is_infeasible
        assert brute_chi(cycle(5), 2).chi == 1

    def test_witness_validates(self):
        out = brute_chi(cycle(8), 1)
        assert out.chi == 2 and is_exact_coloring(cycle(8), out.witness, 1)

    @pytest.mark.parametrize("n", (16, 18, 20))
    def test_wheels_at_d2_are_refuted_within_1000_nodes(self, n):
        # the hub is picked first, so its count is checked from the first move
        assert brute_chi(wheel(n), 2, budget=1000).is_infeasible

    def test_dense_graph_at_d1_within_20000_nodes(self):
        g = random_graph(24, 0.5, seed=1)
        out = brute_chi(g, 1, budget=20_000)
        assert out.chi == 5 and is_exact_coloring(g, out.witness, 1)

    def test_clique_bound_above_the_cap_still_tries_the_cap(self):
        # K5 at d = 2: clique bound 2, cap 5 // 3 = 1; k = 1 is searched and fails
        out, nodes = spent(brute_chi, complete(5), 2)
        assert out.is_infeasible and nodes == 4

    @pytest.mark.parametrize("g", [petersen(), wheel(8), wheel(9), random_graph(16, 0.5, 0),
                                   random_graph(18, 0.5, 1), cycle(7)])
    def test_d0_runs_the_chromatic_number_search(self, g):
        # the same chi, witness and nodes: a first-fit coloring ends the range
        (out, nodes), ((chi, col), chi_nodes) = spent(brute_chi, g, 0), spent(chromatic_number, g)
        assert (out.chi, out.witness, nodes) == (chi, col, chi_nodes)

    def test_disjoint_union_takes_max(self):
        # triangle (chi_2 = 1) next to a K6 (chi_1 = 3): disjoint answers merge
        tri_plus_k6 = build_graph(
            9,
            [(0, 1), (1, 2), (0, 2)]
            + [(3 + i, 3 + j) for i in range(6) for j in range(i + 1, 6)],
        )
        out = brute_chi(tri_plus_k6, 2)
        assert out.chi == max(
            brute_chi(cycle(3), 2).chi, brute_chi(complete(6), 2).chi
        )
        assert is_exact_coloring(tri_plus_k6, out.witness, 2)


class TestRegularPartitions:
    def test_cycle6_d1_two_matchings(self):
        parts = enumerate_regular_partitions(cycle(6), 1)
        assert len(parts) == 2
        for rp in parts:
            assert all(len(p) == 2 for p in rp.parts)

    def test_cycle6_d2_whole_cycle(self):
        parts = enumerate_regular_partitions(cycle(6), 2)
        assert len(parts) == 1
        assert parts[0].parts == ((0, 1, 2, 3, 4, 5),)

    def test_complete4_d1_three(self):
        assert len(enumerate_regular_partitions(complete(4), 1)) == 3

    def test_limit_is_prefix(self):
        full = enumerate_regular_partitions(complete(6), 1)
        assert enumerate_regular_partitions(complete(6), 1, limit=4) == full[:4]

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("d", [1, 2])
    def test_agrees_with_set_partition_filter(self, seed, d):
        g = random_graph(7, p=0.5, seed=200 + seed)
        got = {
            frozenset(frozenset(p) for p in rp.parts)
            for rp in enumerate_regular_partitions(g, d)
        }
        assert got == regular_partitions_filter(g, d)

    def test_every_part_is_regular(self):
        for rp in enumerate_regular_partitions(petersen(), 1):
            for part in rp.parts:
                members = set(part)
                for v in part:
                    assert sum(1 for u in petersen().adj[v] if u in members) == 1


class TestChiViaQuotients:
    def test_tightness_gadget(self):
        out = chi_via_quotients(tightness_gadget(), 1)
        assert out.chi == 3
        assert is_exact_coloring(tightness_gadget(), out.witness, 1)

    def test_cycle4_d1(self):
        assert chi_via_quotients(cycle(4), 1).chi == 2

    def test_tree_with_perfect_matching(self):
        # caterpillar tree with a perfect matching: quotient of a tree is 2-colorable
        t = build_graph(6, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)])
        assert perfect_matchings(t, limit=1)
        assert chi_via_quotients(t, 1).chi == 2

    def test_infeasible_when_no_partition(self):
        assert chi_via_quotients(cycle(5), 1).is_infeasible
        assert chi_via_quotients(path(3), 2).is_infeasible

    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("d", [1, 2])
    def test_agrees_with_brute(self, seed, d):
        g = random_graph(7, p=0.45, seed=300 + seed)
        a = brute_chi(g, d)
        b = chi_via_quotients(g, d)
        assert (a.chi, a.is_infeasible) == (b.chi, b.is_infeasible)
        if a.is_finite:
            assert is_exact_coloring(g, b.witness, d)

    def test_one_budget_bounds_the_enumeration_and_every_search(self):
        out, nodes = spent(chi_via_quotients, petersen(), 1)
        assert out.chi == 5 and nodes == 129
        assert chi_via_quotients(petersen(), 1, budget=nodes).chi == 5
        with pytest.raises(BudgetExceededError):
            chi_via_quotients(petersen(), 1, budget=nodes - 1)

    def test_d1_equals_min_over_perfect_matchings(self):
        # the defect-1 case specializes to contracting perfect matchings
        from exactcolor import chromatic_number, contract_partition

        for g in (cycle(8), complete(6), tightness_gadget(), petersen()):
            quotient_chis = [
                chromatic_number(contract_partition(g, [list(e) for e in m.edges]))[0]
                for m in perfect_matchings(g)
            ]
            expect = min(quotient_chis) if quotient_chis else None
            got = chi_via_quotients(g, 1)
            if expect is None:
                assert got.is_infeasible
            else:
                assert got.chi == expect


class TestPaperBoundsAsProperties:
    @pytest.mark.parametrize("seed", range(20))
    def test_two_delta_minus_one_upper_bound(self, seed):
        # connected + perfect matching + finite value => chi_1 <= 2*maxdeg - 1
        g = random_graph(8, p=0.4, seed=400 + seed)
        if len(connected_components(g)) != 1 or not perfect_matchings(g, limit=1):
            return
        out = brute_chi(g, 1)
        if out.is_finite:
            assert out.chi <= 2 * g.max_degree() - 1

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("d", [1, 2])
    def test_clique_lower_bound(self, seed, d):
        g = random_graph(8, p=0.5, seed=500 + seed)
        out = brute_chi(g, d)
        if out.is_finite:
            assert out.chi >= clique_lower_bound(g, d)

    def test_petersen_attains_extremal_value(self):
        assert brute_chi(petersen(), 1).chi == 2 * 3 - 1

    def test_c6_attains_extremal_value(self):
        # cycles of length 4k + 2 attain 2*2 - 1 = 3
        assert brute_chi(cycle(6), 1).chi == 3
        assert brute_chi(cycle(10), 1).chi == 3

    def test_k2_attains_extremal_value(self):
        assert brute_chi(path(2), 1).chi == 1 == 2 * 1 - 1


class TestOracleWitnesses:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("d", [1, 2])
    def test_every_witness_is_exact(self, seed, d):
        g = random_graph(8, p=0.45, seed=600 + seed)
        out = brute_chi(g, d)
        if out.is_finite:
            assert is_exact_coloring(g, out.witness, d)
        k = (out.chi if out.is_finite else 2) + 1
        w = brute_solve(g, k, d)
        if w is not None:
            assert is_exact_coloring(g, w, d)
