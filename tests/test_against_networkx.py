"""Differential tests against networkx, an independent implementation (test-only dependency)."""

import pytest

from exactcolor import cactus_preprocess, random_cactus
from exactcolor.cactus import cactus_perfect_matching

nx = pytest.importorskip("networkx")


def to_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


@pytest.mark.parametrize("style", ["mixed", "bridged", "shared", "petaled"])
def test_cactus_perfect_matching_exists_iff_maximum_matching_is_perfect(style):
    found = set()
    for n in (2, 3, 4, 6, 8, 10, 13, 16, 20, 31, 40, 60, 100, 200, 400):
        for seed in range(3):
            g = random_cactus(n, seed=seed, style=style)
            pairs = cactus_perfect_matching(cactus_preprocess(g))
            maximum = nx.max_weight_matching(to_networkx(g), maxcardinality=True)
            assert (pairs is not None) == (2 * len(maximum) == g.n), (n, seed)
            if pairs is not None:
                assert sorted(v for p in pairs for v in p) == list(range(g.n))
                assert all(g.has_edge(u, v) for u, v in pairs)
            found.add(pairs is not None)
    assert found == {True, False}
