import random
import sys

import pytest

import exactcolor as xc
from exactcolor import graphs


def count_calls(monkeypatch, name):
    """Count calls of graphs.<name>, patched in every exactcolor module that imports it."""
    original = getattr(graphs, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "exactcolor" or mod_name.startswith("exactcolor."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize(
    "g,d,algorithm",
    [
        (xc.random_cactus(60, seed=1, style="bridged"), 2, "cactus"),
        (xc.random_block_graph(60, seed=1), 1, "blockgraph"),
    ],
)
def test_one_block_cut_tree_and_no_chordality_test(monkeypatch, g, d, algorithm):
    bct_calls = count_calls(monkeypatch, "block_cut_tree")
    chordal_calls = count_calls(monkeypatch, "is_chordal")
    rep = xc.solve(g, d)
    assert rep.algorithm == algorithm
    assert len(bct_calls) == 1
    assert chordal_calls == []


def test_recognize_computes_nothing_up_front(monkeypatch):
    bct_calls = count_calls(monkeypatch, "block_cut_tree")
    classes = xc.recognize(xc.cycle(6))
    assert bct_calls == []
    assert classes.is_cactus and classes.is_block_graph is False
    assert len(bct_calls) == 1


def relabeled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return xc.build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("g,d,algorithm", [
    (xc.cycle(8), 1, "closedform:cycle"),
    (xc.cycle(10), 1, "closedform:cycle"),
    (xc.wheel(8), 1, "closedform:wheel"),
])
def test_closed_form_witness_fits_any_vertex_numbering(g, d, algorithm, seed):
    h = relabeled(g, seed)
    rep = xc.solve(h, d)
    assert rep.algorithm == algorithm
    assert xc.is_exact_coloring(h, rep.witness, d)


@pytest.mark.parametrize("rims", [(3, 3, 3), (5, 6), (3, 4, 4)])
def test_hub_over_several_rim_cycles_is_not_a_wheel(rims):
    edges, first = [], 1
    for r in rims:
        edges += [(first + i, first + (i + 1) % r) for i in range(r)]
        first += r
    g = xc.build_graph(first, edges + [(0, v) for v in range(1, first)])
    assert xc.recognize(g).wheel_order is None
    rep, ref = xc.solve(g, 1), xc.brute_chi(g, 1)
    assert rep.chi == ref.chi and (rep.verdict == "infinite") == ref.is_infeasible
