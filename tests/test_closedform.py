import random

import pytest

from exactcolor import (
    BadParameterError,
    NotATreeError,
    blockgraph_chi,
    brute_chi,
    build_graph,
    cactus_chi1,
    chi_complete,
    chi_cycle,
    chi_regular_trivial,
    chi_tree,
    chi_wheel,
    clique_lower_bound,
    complete,
    cycle,
    is_exact_coloring,
    path,
    petersen,
    solve,
    star,
    wheel,
)
from exactcolor.solver import _relabel
from conftest import permuted


def assert_solve_gives(g, d, out):
    """solve(g, d) answers the closed form's out: the same chi and the same witness on g."""
    rep = solve(g, d)
    if out.is_infeasible:
        assert (rep.verdict, rep.chi) == ("infinite", None), rep
    else:
        assert (rep.verdict, rep.chi, rep.witness) == ("yes", out.chi, out.witness), rep


def relabeled_tree(seed):
    """A random tree, renumbered; odd seeds plant a perfect matching."""
    rng = random.Random(seed)
    n = rng.choice([2, 7, 40, 301, 2000])
    if seed % 2:
        n -= n % 2
        edges = [(2 * i, 2 * i + 1) for i in range(n // 2)]
        edges += [(rng.randrange(2 * i), 2 * i + rng.randrange(2)) for i in range(1, n // 2)]
    else:
        edges = [(rng.randrange(v), v) for v in range(1, n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return permuted(build_graph(n, edges), perm)


def tree_chi1(t):
    """chi_1 of a tree by stripping leaves, each matched to its one neighbor left.

    1 for K2, 2 when the perfect matching exists (T/M is a tree on two or
    more vertices), None (infinite) when some vertex is left unmatched.
    """
    nbrs = [set(a) for a in t.adj]
    matched = [False] * t.n
    leaves = [v for v in range(t.n) if len(nbrs[v]) <= 1]
    while leaves:
        v = leaves.pop()
        if matched[v]:
            continue
        if not nbrs[v]:
            return None  # its neighbors are all matched elsewhere
        (u,) = nbrs[v]
        matched[v] = matched[u] = True
        for w in nbrs[u] - {v}:
            nbrs[w].discard(u)
            if len(nbrs[w]) <= 1:
                leaves.append(w)
    return 1 if t.n == 2 else 2


class TestChiCycle:
    @pytest.mark.parametrize(
        "n,expect", [(8, 2), (12, 2), (6, 3), (10, 3), (7, None), (5, None), (9, None)]
    )
    def test_d1_pattern(self, n, expect):
        out = chi_cycle(n, 1)
        if expect is None:
            assert out.is_infeasible
        else:
            assert out.chi == expect
            assert is_exact_coloring(cycle(n), out.witness, 1)

    @pytest.mark.parametrize("n", range(3, 12))
    def test_d2_monochromatic(self, n):
        out = chi_cycle(n, 2)
        assert out.chi == 1
        assert is_exact_coloring(cycle(n), out.witness, 2)

    def test_d3_infeasible(self):
        assert chi_cycle(9, 3).is_infeasible

    def test_bad_parameters(self):
        with pytest.raises(BadParameterError):
            chi_cycle(2, 1)
        with pytest.raises(BadParameterError):
            chi_cycle(5, 0)

    @pytest.mark.parametrize("n", range(3, 13))
    @pytest.mark.parametrize("d", [1, 2])
    def test_agrees_with_brute(self, n, d):
        a, b = chi_cycle(n, d), brute_chi(cycle(n), d)
        assert (a.chi, a.is_infeasible) == (b.chi, b.is_infeasible)

    @pytest.mark.parametrize("n", range(3, 41))
    @pytest.mark.parametrize("d", [1, 2])
    def test_agrees_with_solve_on_relabeled_cycles(self, n, d):
        # the cactus and regular routes answer cycles; the closed form's
        # witness colors the i-th vertex of the ring of the one block
        g = permuted(cycle(n), random.Random(n).sample(range(n), n))
        assert_solve_gives(g, d, _relabel(chi_cycle(n, d), list(g.bct.blocks[0])))


class TestChiWheel:
    @pytest.mark.parametrize("n,expect", [(4, 2), (6, 3), (8, 3), (10, 3), (5, None), (7, None), (9, None)])
    def test_pattern(self, n, expect):
        out = chi_wheel(n, 1)
        if expect is None:
            assert out.is_infeasible
        else:
            assert out.chi == expect
            assert is_exact_coloring(wheel(n), out.witness, 1)

    def test_only_d1(self):
        with pytest.raises(BadParameterError):
            chi_wheel(6, 2)

    def test_even_wheels_pair_the_rim_in_two_alternating_colors(self):
        for n in range(6, 400, 2):
            out = chi_wheel(n, 1)
            assert out.chi == out.witness.k == 3
            assert is_exact_coloring(wheel(n), out.witness, 1), n

    @pytest.mark.parametrize("n", range(4, 13))
    def test_agrees_with_brute(self, n):
        a, b = chi_wheel(n, 1), brute_chi(wheel(n), 1)
        assert (a.chi, a.is_infeasible) == (b.chi, b.is_infeasible)


class TestChiTree:
    def test_path4(self):
        out = chi_tree(path(4), 1)
        assert out.chi == 2 and is_exact_coloring(path(4), out.witness, 1)

    def test_path3_infeasible(self):
        assert chi_tree(path(3), 1).is_infeasible

    def test_star5_infeasible(self):
        assert chi_tree(star(5), 1).is_infeasible

    def test_k2(self):
        assert chi_tree(path(2), 1).chi == 1

    def test_d2_always_infeasible(self):
        assert chi_tree(path(6), 2).is_infeasible

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert chi_tree(g, 0).chi == 1
        assert chi_tree(g, 1).is_infeasible

    def test_not_a_tree(self):
        with pytest.raises(NotATreeError):
            chi_tree(cycle(4), 1)
        with pytest.raises(NotATreeError):
            chi_tree(build_graph(4, [(0, 1), (2, 3)]), 1)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_trees_agree_with_brute(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 11)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        t = build_graph(n, edges)
        a, b = chi_tree(t, 1), brute_chi(t, 1)
        assert (a.chi, a.is_infeasible) == (b.chi, b.is_infeasible)
        if a.is_finite:
            assert is_exact_coloring(t, a.witness, 1)


    @pytest.mark.parametrize("seed", range(16))
    def test_tree_cactus_and_blockgraph_routes_agree(self, seed):
        # a tree is both a cactus and a block graph, so chi_tree and the two
        # d = 1 routes must agree
        t = relabeled_tree(seed)
        outs = [chi_tree(t, 1), cactus_chi1(t), blockgraph_chi(t, 1)]
        assert len({(o.chi, o.is_infeasible) for o in outs}) == 1
        assert outs[0].is_finite or not seed % 2
        for o in outs:
            if o.is_finite:
                assert o.witness.k == o.chi and is_exact_coloring(t, o.witness, 1)

    @pytest.mark.parametrize("seed", range(16))
    def test_tree_routes_agree_with_leaf_stripping(self, seed):
        # the three routes above share one factor pass; this reference does not
        t = relabeled_tree(seed)
        want = tree_chi1(t)
        assert want is not None or not seed % 2
        for out in (chi_tree(t, 1), cactus_chi1(t), blockgraph_chi(t, 1)):
            assert (out.chi, out.is_infeasible) == (want, want is None)

    def test_leaf_stripping_reference(self):
        assert [tree_chi1(path(n)) for n in (1, 2, 3, 4, 5, 6)] == [None, 1, None, 2, None, 2]
        assert tree_chi1(star(4)) is None

    @pytest.mark.parametrize("seed", range(16))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_agrees_with_solve_on_relabeled_trees(self, seed, d):
        # the cactus route (d = 1) and the precheck (d >= 2) answer trees
        t = relabeled_tree(seed)
        assert_solve_gives(t, d, chi_tree(t, d))


class TestChiComplete:
    @pytest.mark.parametrize("n,d,expect", [(6, 1, 3), (6, 2, 2), (5, 1, None), (12, 3, 3), (7, 0, 7), (1, 0, 1)])
    def test_values(self, n, d, expect):
        out = chi_complete(n, d)
        if expect is None:
            assert out.is_infeasible
        else:
            assert out.chi == expect
            assert is_exact_coloring(complete(n), out.witness, d)

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("d", range(0, 5))
    def test_agrees_with_brute(self, n, d):
        a, b = chi_complete(n, d), brute_chi(complete(n), d)
        assert (a.chi, a.is_infeasible) == (b.chi, b.is_infeasible)

    @pytest.mark.parametrize("n", range(1, 25))
    @pytest.mark.parametrize("d", range(1, 5))
    def test_agrees_with_solve(self, n, d):
        # the block-graph route (or the regular route at d = n - 1) answers K_n
        assert_solve_gives(complete(n), d, chi_complete(n, d))


class TestCliqueLowerBound:
    def test_k7_d1(self):
        assert clique_lower_bound(complete(7), 1) == 4

    def test_triangle_free_d1(self):
        assert clique_lower_bound(petersen(), 1) == 1

    def test_petersen_d0(self):
        assert clique_lower_bound(petersen(), 0) == 2


class TestChiRegularTrivial:
    def test_cycle9_d2(self):
        out = chi_regular_trivial(cycle(9), 2)
        assert out.chi == 1 and is_exact_coloring(cycle(9), out.witness, 2)

    def test_petersen_d3(self):
        assert chi_regular_trivial(petersen(), 3).chi == 1

    def test_not_applicable(self):
        assert chi_regular_trivial(path(3), 1) is None
        assert chi_regular_trivial(cycle(9), 1) is None
