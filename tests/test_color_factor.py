"""graphs.color_factor: the factor routes color their classes off the block sweep.

Each route is cross-checked against the quotient path it replaced, kept here
as a reference: contract the factor that graphs.block_factor finds, then
chromatic_number (block graphs, trees) or is_bipartite (cacti) on the
quotient.
"""

import random
import sys

import pytest

import exactcolor as xc
from exactcolor import blockgraph_chi, build_graph, cactus_chi1, chi_tree, is_exact_coloring
from exactcolor import chromatic, graphs, oracle
from exactcolor.chromatic import _Budget, chromatic_number
from exactcolor.graphs import block_cut_tree, block_factor, color_factor, contract_partition, is_bipartite

from conftest import permuted, planted_block_graph, planted_matching_cactus

# chi_1 = 3: the ring (0, 1, 2, 3, 4) pairs its last vertex with its entry
RING_WRAP_CACTUS = [(0, 1), (0, 4), (1, 2), (1, 8), (2, 3), (3, 4), (3, 5), (5, 6), (5, 7),
                    (6, 7), (8, 9), (8, 13), (9, 10), (10, 11), (11, 12), (12, 13)]


def quotient_chi(g, d, cyclic=False):
    """chi of the built quotient by block_factor's factor, or None without a factor."""
    classes = block_factor(g.n, block_cut_tree(g).sweep, d + 1, cyclic)
    if classes is None:
        return None
    quotient = contract_partition(g, classes)
    if not cyclic:
        return chromatic_number(quotient)[0]
    if quotient.m == 0:
        return 1 if g.n else 0
    return 2 if is_bipartite(quotient)[0] else 3


def relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return permuted(g, perm)


def paired_tree(pairs, rng):
    """A random tree with a perfect matching: pairs (2i, 2i+1) hung off earlier vertices."""
    edges = [(2 * i, 2 * i + 1) for i in range(pairs)]
    edges += [(rng.randrange(2 * i), 2 * i + rng.randrange(2)) for i in range(1, pairs)]
    return build_graph(2 * pairs, edges)


def assert_matches(out, expect, g, d):
    assert out.chi == expect, g.edges()
    if out.is_finite:
        assert out.witness.k == out.chi and is_exact_coloring(g, out.witness, d)


def test_block_graphs_match_the_quotient_path():
    rng = random.Random(10)
    chis = set()
    for seed in range(1020):
        d = 1 + seed % 3
        g, _ = planted_block_graph(1 + seed % 17, d + 1, seed)
        if seed % 2:
            g = relabeled(g, rng)
        out = blockgraph_chi(g, d)
        assert_matches(out, quotient_chi(g, d), g, d)
        chis.add(out.chi)
    assert chis >= {1, 2, 3, 4}


def test_planted_matching_cacti_match_the_quotient_path():
    rng = random.Random(11)
    chis = []
    for seed in range(1020):
        g = relabeled(planted_matching_cactus(1 + seed % 25, seed)[0], rng)
        out = cactus_chi1(g)
        assert_matches(out, quotient_chi(g, 1, cyclic=True), g, 1)
        chis.append(out.chi)
    assert chis.count(2) > 20 and chis.count(3) > 20


def test_paired_trees_match_the_quotient_path():
    rng = random.Random(12)
    for seed in range(520):
        t = relabeled(paired_tree(1 + seed % 40, rng), rng)
        assert_matches(chi_tree(t, 1), quotient_chi(t, 1), t, 1)


def first_fit_by_ring(n, sweep, classes):
    """Each new class takes the smallest color its ring lacks, read off a set: the clique rule."""
    cls = [0] * n
    for i, c in enumerate(classes):
        for v in c:
            cls[v] = i
    ccolor = [-1] * len(classes)
    for ring in reversed(sweep):
        used = set()
        for w in ring:
            if ccolor[cls[w]] == -1:
                c = 0
                while c in used:
                    c += 1
                ccolor[cls[w]] = c
            used.add(ccolor[cls[w]])
    color = [ccolor[x] for x in cls]
    return max(color, default=-1) + 1, color


def test_clique_rings_color_first_fit():
    rng = random.Random(15)
    rings = 0
    for seed in range(600):
        d = 1 + seed % 3
        g = relabeled(planted_block_graph(1 + seed % 17, d + 1, seed)[0], rng)
        sweep = block_cut_tree(g).sweep
        classes = block_factor(g.n, sweep, d + 1)
        assert color_factor(g.n, sweep, classes) == first_fit_by_ring(g.n, sweep, classes)
        rings += sum(len(ring) > 2 for ring in sweep)
    assert rings > 1000


def test_ring_of_runs_takes_a_third_color_before_its_entry():
    g = build_graph(14, RING_WRAP_CACTUS)
    sweep = block_cut_tree(g).sweep
    pairs = block_factor(14, sweep, 2, cyclic=True)
    ring = next(r for r in sweep if len(r) == 5)
    assert (ring[-1], ring[0]) in pairs
    k, color = color_factor(14, sweep, pairs, cyclic=True)
    assert k == 3 and is_exact_coloring(g, xc.Coloring(k, tuple(color)), 1)


@pytest.mark.parametrize("g,d,algorithm,verdict,chi", [
    (build_graph(0, []), 1, "blockgraph", "yes", 0),
    (build_graph(0, []), 2, "blockgraph", "yes", 0),
    (build_graph(0, []), 1, "cactus", "yes", 0),
    (build_graph(0, []), 2, "cactus", "yes", 0),
    (build_graph(1, []), 1, "blockgraph", "infinite", None),
    (build_graph(1, []), 1, "cactus", "infinite", None),
    (build_graph(4, [(0, 1), (2, 3)]), 1, "blockgraph", "yes", 1),
    (build_graph(14, RING_WRAP_CACTUS), 1, "cactus", "yes", 3),
    (build_graph(14, RING_WRAP_CACTUS), 1, "auto", "yes", 3),
])
def test_edge_cases_through_solve(g, d, algorithm, verdict, chi):
    rep = xc.solve(g, d, algorithm=algorithm)
    assert (rep.verdict, rep.chi) == (verdict, chi)
    if chi is not None:
        assert rep.witness.k == chi and is_exact_coloring(g, rep.witness, d)


def factor_route_cases():
    rng = random.Random(13)
    for d in (1, 2, 3):
        yield relabeled(planted_block_graph(12, d + 1, d)[0], rng), d, "blockgraph"
    yield relabeled(planted_matching_cactus(30, 1)[0], rng), 1, "cactus"
    yield relabeled(paired_tree(30, rng), rng), 1, "cactus"
    yield relabeled(xc.wheel(12), rng), 1, "closedform:wheel"


@pytest.mark.parametrize("g,d,algorithm", list(factor_route_cases()))
def test_factor_routes_build_no_quotient(monkeypatch, g, d, algorithm):
    banned = (graphs.contract_partition, chromatic.chromatic_number)

    def refuse(*args, **kwargs):
        raise AssertionError("a factor route built or colored a quotient graph")

    for name, mod in list(sys.modules.items()):
        if name == "exactcolor" or name.startswith("exactcolor."):
            for attr, value in list(vars(mod).items()):
                if any(value is f for f in banned):
                    monkeypatch.setattr(mod, attr, refuse)
    rep = xc.solve(g, d)
    assert rep.algorithm == algorithm
    assert rep.verdict == "yes" and is_exact_coloring(g, rep.witness, d)


def glued_blocks(n, rng):
    """Blocks of two to four vertices glued at cut vertices: each a cycle plus random chords."""
    edges, cur = [], 1
    while cur < n:
        block = [rng.randrange(cur)] + list(range(cur, min(n, cur + rng.choice((1, 2, 2, 3)))))
        cur = block[-1] + 1
        edges += [(block[i], block[i - 1]) for i in range(len(block) if len(block) > 2 else 1)]
        edges += [(a, b) for i, a in enumerate(block) for b in block[i + 2:] if rng.random() < 0.4]
    return build_graph(n, edges)


def test_oracle_cap_at_the_largest_block_keeps_answers_and_saves_nodes(monkeypatch):
    rng = random.Random(14)
    new_cap = chromatic._kcap
    saved = finite = 0
    for case in range(1200):  # the cap saves nodes only on infinite answers with small blocks
        g, d = glued_blocks(rng.randint(4, 12), rng), 1 + case % 3
        runs = []
        for cap in (lambda order, block, d: max(1, order // (d + 1)), new_cap):  # old cap, then new
            monkeypatch.setattr(chromatic, "_kcap", cap)
            budget = _Budget(10**7)
            runs.append((oracle.brute_chi(g, d, budget), budget.nodes - budget.left))
        (old, old_nodes), (new, new_nodes) = runs
        assert new.chi == old.chi, (g.edges(), d)
        assert new_nodes <= old_nodes
        saved += new_nodes < old_nodes
        finite += new.is_finite
    assert saved >= 10 and finite >= 100
