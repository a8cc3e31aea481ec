"""Answers do not depend on vertex numbering.

Each seeded (graph, d) case is solved as given and under three seeded
relabelings.  The verdict, chi and route must agree, and every witness
must be exact on the graph it was reported for.  Graphs have even order
at odd d, and block graphs at d >= 1 a planted K_{d+1}-factor, so that
most cases get past the precheck.
"""

import random

import pytest

import exactcolor as xc

from conftest import permuted, planted_block_graph


def _tree(n: int, seed: int) -> xc.Graph:
    rng = random.Random(seed)
    return xc.build_graph(n, [(v, rng.randrange(v)) for v in range(1, n)])


# builder(n, d, seed)
FAMILIES = {
    **{style: lambda n, d, s, style=style: xc.random_cactus(n, seed=s, style=style)
       for style in ("bridged", "petaled", "shared", "mixed")},
    "blockgraph": lambda n, d, s: (planted_block_graph(n // (d + 1), d + 1, s)[0] if d
                                   else xc.random_block_graph(n, seed=s)),
    "tree": lambda n, d, s: _tree(n, s),
    "gnp": lambda n, d, s: xc.random_graph(2 + n % 10, 0.3 + 0.7 * random.Random(s).random(), seed=s),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_answers_do_not_depend_on_vertex_numbering(family):
    build = FAMILIES[family]
    rng = random.Random(f"metamorphic {family}")
    for case in range(28):  # seven cases at each d in 0..3
        d = case % 4
        g = build(2 * rng.randint(2, 20), d, rng.randrange(10**6))
        assert d % 2 == 0 or g.n % 2 == 0
        want = xc.solve(g, d)
        for _ in range(3):
            h = permuted(g, rng.sample(range(g.n), g.n))
            rep = xc.solve(h, d)
            assert (rep.verdict, rep.chi, rep.algorithm) == (want.verdict, want.chi, want.algorithm), (
                family, d, g.edges())
            for graph, report in ((g, want), (h, rep)):
                assert report.witness is None or xc.is_exact_coloring(graph, report.witness, d)
        assert want.verdict in ("yes", "infinite")
