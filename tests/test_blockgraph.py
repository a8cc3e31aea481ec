import random
import time
from itertools import combinations

import pytest

from exactcolor import (
    NotABlockGraphError,
    blockgraph_chi,
    block_cut_tree,
    brute_chi,
    brute_solve,
    build_graph,
    chromatic_number,
    clique_factor,
    complete,
    contract_partition,
    cycle,
    is_exact_coloring,
    path,
    random_block_graph,
    solve,
    star,
)


def triangle_chain(k: int):
    """k triangles joined consecutively by bridges."""
    edges = []
    for t in range(k):
        a = 3 * t
        edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2)]
        if t:
            edges.append((a - 1, a))
    return build_graph(3 * k, edges)


def tree_of_cliques(n, seed, max_block=7):
    """Random connected block graph whose blocks have up to max_block vertices."""
    rng = random.Random(seed)
    edges, cur = [], 1
    while cur < n:
        size = rng.randint(2, min(max_block, n - cur + 1))
        block = [rng.randrange(cur)] + list(range(cur, cur + size - 1))
        edges += combinations(block, 2)
        cur += size - 1
    return build_graph(n, edges)


def all_clique_factors(g, r):
    """Independent factor enumeration: partition vertices into r-sets, filter cliques."""
    verts = list(range(g.n))
    if g.n % r != 0:
        return []

    def rec(remaining):
        if not remaining:
            yield []
            return
        first = remaining[0]
        for others in combinations(remaining[1:], r - 1):
            group = (first, *others)
            if all(g.has_edge(a, b) for a, b in combinations(group, 2)):
                rest = [v for v in remaining[1:] if v not in others]
                for tail in rec(rest):
                    yield [group] + tail

    return [sorted(f) for f in rec(verts)]


class TestCliqueFactor:
    def test_two_triangles_bridge_forced(self, two_triangles_bridge):
        assert clique_factor(two_triangles_bridge, 3) == [(0, 1, 2), (3, 4, 5)]

    def test_bowtie_none(self, bowtie):
        assert clique_factor(bowtie, 3) is None

    def test_k6_lexicographically_least(self):
        factors = all_clique_factors(complete(6), 3)
        assert factors  # brute-force confirms existence
        assert clique_factor(complete(6), 3) == min(factors)

    def test_factor_classes_are_cliques(self):
        for seed in range(10):
            g = random_block_graph(12, seed=seed)
            for r in (2, 3):
                factor = clique_factor(g, r)
                if factor is None:
                    continue
                for group in factor:
                    assert len(group) == r
                    assert all(g.has_edge(a, b) for a, b in combinations(group, 2))
                covered = [v for grp in factor for v in grp]
                assert sorted(covered) == list(range(g.n))

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("r", [2, 3])
    def test_existence_matches_enumeration(self, seed, r):
        g = random_block_graph(9, seed=100 + seed)
        got = clique_factor(g, r)
        expect = all_clique_factors(g, r)
        assert (got is not None) == bool(expect)
        if got is not None:
            assert got in expect

    def test_guard(self):
        with pytest.raises(NotABlockGraphError):
            clique_factor(cycle(4), 2)

    def test_sibling_blocks_cannot_share_their_entry_vertex(self):
        # K_{1,3}: each leaf edge needs the centre
        assert clique_factor(star(4), 2) is None

    @pytest.mark.parametrize("r", [2, 3])
    def test_every_factor_gives_the_same_quotient_chi(self, r):
        # clique_factor returns one factor, which is only safe if the choice cannot change chi
        several = 0
        for seed in range(80):
            g = tree_of_cliques(3 + seed % 10, seed=300 + seed)
            factors = all_clique_factors(g, r)
            chis = {chromatic_number(contract_partition(g, f))[0] for f in factors}
            assert len(chis) <= 1, (seed, g.edges())
            several += len(factors) >= 2
        assert several >= 5


class TestBlockgraphSolve:
    def test_two_triangles_bridge(self, two_triangles_bridge):
        assert solve(two_triangles_bridge, 2, 2, algorithm="blockgraph").verdict == "yes"
        assert solve(two_triangles_bridge, 2, 1, algorithm="blockgraph").verdict == "no"

    def test_k4_d1(self):
        rep = solve(complete(4), 1, 2, algorithm="blockgraph")
        assert rep.verdict == "yes" and is_exact_coloring(complete(4), rep.witness, 1)
        assert brute_solve(complete(4), 2, 1) is not None

    def test_star_d2_no(self):
        assert solve(star(4), 2, 3, algorithm="blockgraph").verdict == "no"


class TestBlockgraphChi:
    def test_k2_d1(self):
        assert blockgraph_chi(path(2), 1).chi == 1

    def test_bowtie_infeasible(self, bowtie):
        assert blockgraph_chi(bowtie, 2).is_infeasible

    def test_triangle_chain(self):
        out = blockgraph_chi(triangle_chain(3), 2)
        assert out.chi == 2
        assert is_exact_coloring(triangle_chain(3), out.witness, 2)
        assert brute_chi(triangle_chain(3), 2).chi == 2

    def test_quotient_is_block_graph(self):
        found = 0
        for seed in range(20):
            g = random_block_graph(14, seed=seed)
            factor = clique_factor(g, 2)
            if factor is None:
                continue
            found += 1
            quotient = contract_partition(g, factor)
            assert block_cut_tree(quotient).is_block_graph
        assert found >= 3

    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_block_graphs_agree_with_brute(self, seed, d):
        g = random_block_graph(6 + seed % 8, seed=seed * 13)
        a, b = blockgraph_chi(g, d), brute_chi(g, d)
        assert (a.chi, a.is_infeasible) == (b.chi, b.is_infeasible), (
            f"factor-independence guard tripped: seed={seed * 13} d={d} "
            f"edges={g.edges()}"
        )
        if a.is_finite:
            assert is_exact_coloring(g, a.witness, d)


class TestRuntimeScaling:
    def test_roughly_linear_on_chains(self):
        # doubling the chain should not blow the time up quadratically;
        # generous threshold to stay robust on loaded machines
        sizes = [1500, 3000, 6000]
        times = []
        for n in sizes:
            g = triangle_chain(n // 3)
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                out = blockgraph_chi(g, 2)
                best = min(best, time.perf_counter() - start)
            assert out.chi == 2
            times.append(best)
        assert times[2] < times[0] * (sizes[2] / sizes[0]) ** 1.7 + 0.05
