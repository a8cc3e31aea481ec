import random
import sys

import pytest

import exactcolor as xc
from exactcolor import cactus, graphs

from conftest import planted_cactus


def patch_graphs(monkeypatch, name, replacement, module=graphs):
    """Replace module.<name> (graphs by default) in every exactcolor module that holds it."""
    original = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "exactcolor" or mod_name.startswith("exactcolor."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, replacement)


def count_calls(monkeypatch, name, module=graphs):
    """Count calls of module.<name> (graphs by default), patched wherever it is held."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    patch_graphs(monkeypatch, name, counted, module)
    return calls


def disjoint_union(g, h):
    return xc.build_graph(g.n + h.n, g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()])


def clique_tree():
    """K12, K4 and K8 joined by two bridges: a block graph with chi_3 = 3."""
    cliques = [range(0, 12), range(12, 16), range(16, 24)]
    edges = [(a, b) for c in cliques for a in c for b in c if a < b]
    return xc.build_graph(24, edges + [(0, 12), (5, 16)])


@pytest.mark.parametrize(
    "g,d,algorithm",
    [
        (xc.random_cactus(60, seed=1, style="bridged"), 2, "cactus"),
        (xc.random_block_graph(60, seed=1), 1, "blockgraph"),
        (xc.petersen(), 1, "brute"),
        (disjoint_union(xc.petersen(), xc.petersen()), 1, "brute"),
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


def test_budget_bounds_every_search_of_a_solve():
    # 16 clique nodes plus 577 coloring nodes in DSATUR order: both charge
    # the one budget, so one node less leaves the solve unknown
    rep = xc.solve(xc.petersen(), 1, budget=592)
    assert rep.verdict == "unknown" and rep.algorithm == "brute"
    assert rep.reason == "node budget exhausted (after 592 nodes)"
    assert xc.solve(xc.petersen(), 1, budget=593).chi == 5


@pytest.mark.parametrize(
    "g,d,algorithm",
    [
        (xc.random_cactus(60, seed=1, style="bridged"), 2, "cactus"),
        (xc.random_block_graph(60, seed=1), 1, "blockgraph"),
        (xc.path(10), 1, "closedform:tree"),
    ],
)
def test_polynomial_routes_find_the_components_once(monkeypatch, g, d, algorithm):
    calls = count_calls(monkeypatch, "connected_components")
    assert xc.solve(g, d).algorithm == algorithm
    # the odd-d precheck and the tree test read the orders the block-cut search records
    assert calls == []


def test_d2_cactus_solve_labels_once(monkeypatch):
    # an odd polychromatic cycle needs a third color: one labeling and one
    # extraction find it, with no second labeling pass
    labels = count_calls(monkeypatch, "cactus_label", cactus)
    extracts = count_calls(monkeypatch, "cactus_extract_coloring", cactus)
    g, _ = planted_cactus(200, seed=0)
    rep = xc.solve(g, 2)
    assert (rep.chi, rep.algorithm) == (3, "cactus")
    assert (len(labels), len(extracts)) == (1, 1)


@pytest.mark.parametrize("style", ["mixed", "bridged", "shared", "petaled"])
def test_d1_cactus_solve_enumerates_no_matchings(monkeypatch, style):
    calls = count_calls(monkeypatch, "perfect_matchings")
    rep = xc.solve(xc.random_cactus(400, seed=3, style=style), 1)
    assert (rep.verdict, rep.algorithm) == ("infinite", "cactus")
    for seed in range(5):
        g = xc.random_cactus(40 + 2 * seed, seed=seed, style=style)
        assert xc.solve(g, 1).algorithm == "cactus"
    assert calls == []


@pytest.mark.parametrize("g,d,algorithm", [
    (xc.random_cactus(60, seed=1, style="bridged"), 2, "cactus"),
    (xc.random_block_graph(60, seed=1), 1, "blockgraph"),
    (xc.path(10), 1, "closedform:tree"),
    (clique_tree(), 3, "blockgraph"),
    (xc.cycle(12), 1, "closedform:cycle"),
    (xc.wheel(8), 1, "closedform:wheel"),
])
def test_polynomial_and_closed_form_routes_need_no_component_search(monkeypatch, g, d, algorithm):
    def refuse(_):
        raise AssertionError("connected_components was called")

    patch_graphs(monkeypatch, "connected_components", refuse)
    assert xc.solve(g, d).algorithm == algorithm


@pytest.mark.parametrize("g,d,algorithm", [
    (xc.petersen(), 1, "auto"),
    (xc.cycle(10), 1, "closedform"),
    (xc.path(8), 1, "closedform"),
    (xc.random_cactus(40, seed=2, style="bridged"), 2, "cactus"),
    (xc.build_graph(8, [(a, b) for a in range(4) for b in range(a + 1, 5)] + [(4, 5), (5, 6), (6, 7), (5, 7)]),
     1, "blockgraph"),
    (xc.cycle(10), 1, "brute"),
    (xc.petersen(), 1, "brute"),  # k = 7, chi_1 = 5
])
def test_a_decision_above_chi_never_reports_k_as_chi(g, d, algorithm):
    chi = xc.brute_chi(g, d).chi
    rep = xc.solve(g, d, k=chi + 2, algorithm=algorithm)
    assert rep.verdict == "yes" and xc.is_exact_coloring(g, rep.witness, d)
    if algorithm == "brute":  # only a decision search ran: chi stays unknown
        assert (rep.chi, rep.witness.k) == (None, chi + 2)
    else:
        assert rep.chi == rep.witness.k == chi


def test_brute_finds_the_components_at_most_twice(monkeypatch):
    g = xc.petersen()
    calls = count_calls(monkeypatch, "connected_components")
    assert xc.solve(g, 1).chi == 5
    assert sum(args[0] is g for args in calls) <= 2


def test_connected_graph_is_not_copied_per_component(monkeypatch):
    calls = count_calls(monkeypatch, "induced_subgraph")
    assert xc.chromatic_number(xc.petersen())[0] == 3
    assert calls == []


@pytest.mark.parametrize("g,d,reason", [
    (xc.path(3), 2, "d exceeds min degree"),
    (xc.build_graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)]), 2, "d exceeds min degree"),
    (xc.wheel(7), 1, "d is odd and a component has odd order"),
    (xc.random_graph(13, 0.5, 7), 1, "d is odd and a component has odd order"),
])
def test_precheck_reports_the_condition_that_failed(g, d, reason):
    rep = xc.solve(g, d)
    assert (rep.verdict, rep.algorithm, rep.reason) == ("infinite", "precheck", reason)
    assert xc.solve(g, d, k=3).reason == reason
    assert xc.brute_chi(g, d).is_infeasible


@pytest.mark.parametrize("g,d", [(xc.complete(23), 3), (xc.wheel(39), 1), (xc.cycle(61), 1)])
def test_odd_order_at_odd_d_needs_no_block_cut_tree(monkeypatch, g, d):
    calls = count_calls(monkeypatch, "block_cut_tree")
    rep = xc.solve(g, d)
    assert (rep.verdict, rep.algorithm, rep.reason) == (
        "infinite", "precheck", "d is odd and a component has odd order")
    assert calls == []


@pytest.mark.parametrize("g", [xc.random_cactus(9, seed=2), xc.complete(4), xc.random_graph(8, 0.5, 1)])
@pytest.mark.parametrize("algorithm", ["auto", "brute"])
def test_negative_defect_is_one_error_on_every_route(g, algorithm):
    with pytest.raises(xc.BadParameterError, match="^defect must be nonnegative$"):
        xc.solve(g, -1, algorithm=algorithm)


@pytest.mark.parametrize("algorithm", ["auto", "closedform", "cactus", "brute"])
@pytest.mark.parametrize("kwargs,message", [
    ({"k": -1}, "color count must be nonnegative"),
    ({"budget": -5}, "budget must be nonnegative"),
])
def test_negative_k_or_budget_is_one_error_on_every_route(algorithm, kwargs, message):
    with pytest.raises(xc.BadParameterError, match=f"^{message}$"):
        xc.solve(xc.cycle(8), 1, algorithm=algorithm, **kwargs)


def test_long_odd_cycle_at_d0_needs_no_recursion():
    # the exact k-coloring search backtracks once per vertex: 2001 levels
    g = xc.cycle(2001)
    rep = xc.solve(g, 0)
    assert (rep.verdict, rep.chi) == ("yes", 3)
    assert xc.is_exact_coloring(g, rep.witness, 0)


def sunlet():
    """C4 with a private triangle on each cycle vertex: chi_2 = 2."""
    edges = [(i, (i + 1) % 4) for i in range(4)]
    for i in range(4):
        edges += [(i, 4 + 2 * i), (i, 5 + 2 * i), (4 + 2 * i, 5 + 2 * i)]
    return xc.build_graph(12, edges)


def k4_with_pendants():
    """K4 with a pendant on every vertex: a block graph, not a cactus, chi_1 = 4."""
    return xc.build_graph(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
                          + [(v, v + 4) for v in range(4)])


@pytest.mark.parametrize("solver,g,d,algorithm", [
    ("cactus_chi2", sunlet(), 2, "cactus"),
    ("cactus_chi1", xc.tightness_gadget(), 1, "cactus"),
    ("blockgraph_chi", k4_with_pendants(), 1, "blockgraph"),
    ("chi_tree", xc.path(6), 1, "closedform:tree"),
    ("brute_chi", xc.petersen(), 1, "brute"),
])
def test_a_witness_with_one_vertex_recolored_is_refused(monkeypatch, solver, g, d, algorithm):
    honest = getattr(xc.solver, solver)
    rep = xc.solve(g, d)
    assert rep.algorithm == algorithm and xc.is_exact_coloring(g, rep.witness, d)

    def recolored(*args, **kwargs):
        out = honest(*args, **kwargs)
        w = out.witness
        assign = (1 if w.assign[0] == 0 else 0,) + w.assign[1:]
        return xc.SolveOutcome.finite(out.chi, xc.Coloring(max(w.k, 2), assign))

    monkeypatch.setattr(xc.solver, solver, recolored)
    with pytest.raises(xc.InvalidWitnessError, match=f"^{algorithm} returned a witness"):
        xc.solve(g, d)


@pytest.mark.parametrize("algorithm", ["cactus", "blockgraph"])
def test_long_path_needs_no_recursion(algorithm):
    # one depth-first search 10^5 vertices deep builds the block-cut tree
    g = xc.path(10**5)
    rep = xc.solve(g, 1, algorithm=algorithm)
    assert (rep.verdict, rep.chi) == ("yes", 2)
