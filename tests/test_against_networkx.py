"""Differential tests against networkx, an independent implementation (test-only dependency)."""

import random
from collections import Counter
from itertools import combinations

import pytest

from exactcolor import (
    block_cut_tree,
    build_graph,
    clique_factor,
    is_chordal,
    random_block_graph,
    random_cactus,
)
from exactcolor.graphs import block_factor
from conftest import permuted

nx = pytest.importorskip("networkx")

STYLES = ["mixed", "bridged", "shared", "petaled"]


def to_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def disjoint_union(*graphs):
    """The graphs side by side, the vertices of each numbered after the ones before."""
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.n
    return build_graph(offset, edges)


def sample_graphs():
    """Sparse and dense random graphs (often disconnected), cacti and block graphs.

    The class flags count components, so the sample also holds disjoint
    unions of a cactus with isolated vertices and with a non-cactus.
    """
    for seed in range(60):
        n = 1 + seed % 30
        yield random_graph(n, (0.5 + seed % 5) / n, seed)
    for seed in range(30):
        yield random_graph(1 + seed % 12, 0.3 + 0.1 * (seed % 6), 100 + seed)
    for n in (1, 2, 5, 12, 40, 150):
        for style in STYLES:
            yield random_cactus(n, seed=n, style=style)
        yield random_block_graph(n, seed=n)
    diamond = build_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    for seed in range(24):
        cactus = random_cactus(3 + 3 * seed, seed=seed, style=STYLES[seed % 4])
        other = (diamond, random_block_graph(5 + seed, seed=seed),
                 random_graph(6, 0.8, 200 + seed))[seed % 3]
        isolated = build_graph(1 + seed % 3, [])
        yield disjoint_union(cactus, isolated)
        yield disjoint_union(isolated, cactus, other)
        union = disjoint_union(other, cactus, isolated, cactus)
        yield permuted(union, random.Random(seed).sample(range(union.n), union.n))


@pytest.mark.parametrize("style", STYLES)
def test_cactus_perfect_matching_exists_iff_maximum_matching_is_perfect(style):
    found = set()
    for n in (2, 3, 4, 6, 8, 10, 13, 16, 20, 31, 40, 60, 100, 200, 400):
        for seed in range(3):
            g = random_cactus(n, seed=seed, style=style)
            assert g.bct.is_cactus
            pairs = block_factor(g.n, g.bct.sweep, 2, cyclic=True)
            maximum = nx.max_weight_matching(to_networkx(g), maxcardinality=True)
            assert (pairs is not None) == (2 * len(maximum) == g.n), (n, seed)
            if pairs is not None:
                assert sorted(v for p in pairs for v in p) == list(range(g.n))
                assert all(g.has_edge(u, v) for u, v in pairs)
            found.add(pairs is not None)
    assert found == {True, False}


def test_block_cut_tree_matches_biconnected_components():
    kinds = set()
    for g in sample_graphs():
        bct, h = block_cut_tree(g), to_networkx(g)
        expect_blocks = sorted(tuple(sorted(c)) for c in nx.biconnected_components(h))
        expect_edges = sorted(
            tuple(sorted(tuple(sorted(e)) for e in es)) for es in nx.biconnected_component_edges(h)
        )
        assert sorted(tuple(sorted(b)) for b in bct.blocks) == expect_blocks, g.edges()
        # a block's edges are the edges of g with both ends in it
        block_edges = [tuple(e for e in g.edges() if set(e) <= set(b)) for b in bct.blocks]
        assert sorted(block_edges) == expect_edges, g.edges()
        assert sum(map(len, block_edges)) == g.m
        membership = Counter(v for b in bct.blocks for v in b)
        cuts = {v for v, count in membership.items() if count >= 2}
        assert cuts == set(nx.articulation_points(h)), g.edges()
        # a cactus has only edges and cycles as blocks, a block graph only cliques
        degrees = [Counter(v for e in es for v in e) for es in nx.biconnected_component_edges(h)]
        cactus = all(len(deg) == 2 or set(deg.values()) == {2} for deg in degrees)
        block = all(set(deg.values()) == {len(deg) - 1} for deg in degrees)
        assert (bct.is_cactus, bct.is_block_graph) == (cactus, block), g.edges()
        kinds.add((cactus, block))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_is_chordal_matches_networkx():
    seen = set()
    for g in sample_graphs():
        chordal = is_chordal(g)
        assert chordal == nx.is_chordal(to_networkx(g)), g.edges()
        seen.add(chordal)
    assert seen == {True, False}


def test_block_graph_matching_factor_exists_iff_maximum_matching_is_perfect():
    found = set()
    for n in (1, 2, 3, 4, 6, 8, 10, 13, 16, 20, 31, 40, 60, 100, 200, 400):
        for seed in range(3):
            g = random_block_graph(n, seed=seed)
            factor = clique_factor(g, 2)
            maximum = nx.max_weight_matching(to_networkx(g), maxcardinality=True)
            assert (factor is not None) == (2 * len(maximum) == g.n), (n, seed)
            found.add(factor is not None)
    assert found == {True, False}
