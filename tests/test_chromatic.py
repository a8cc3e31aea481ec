import ast
import sys
from pathlib import Path

import pytest

from exactcolor import (
    BudgetExceededError,
    Graph,
    build_graph,
    chromatic_number,
    clique_number,
    complete,
    greedy_coloring,
    is_chordal,
    cycle,
    icosahedron,
    is_proper,
    max_clique,
    octahedron,
    path,
    petersen,
    random_graph,
    wheel,
)
from exactcolor import chromatic
from exactcolor.chromatic import _Budget, _exact_k_coloring
from conftest import chi_exhaustive


def fan(path_len: int):
    """Path plus a universal vertex."""
    edges = [(i, i + 1) for i in range(path_len - 1)]
    edges += [(i, path_len) for i in range(path_len)]
    return build_graph(path_len + 1, edges)


class TestChromaticNumber:
    def test_petersen(self):
        chi, col = chromatic_number(petersen())
        assert chi == 3
        assert is_proper(petersen(), col)

    def test_complete6(self):
        assert chromatic_number(complete(6))[0] == 6

    def test_fan_graph(self):
        # path on 5 vertices plus a universal vertex
        g = fan(5)
        assert chromatic_number(g)[0] == 3

    def test_empty_and_edgeless(self):
        assert chromatic_number(build_graph(0, []))[0] == 0
        assert chromatic_number(build_graph(5, []))[0] == 1

    def test_disconnected_max_over_components(self):
        g = build_graph(7, [(0, 1), (1, 2), (0, 2)] + [(3 + i, 3 + j) for i in range(4) for j in range(i + 1, 4)])
        assert chromatic_number(g)[0] == 4

    @pytest.mark.parametrize("seed", range(25))
    def test_agrees_with_exhaustive_sweep(self, seed):
        n = 4 + seed % 5  # 4..8
        g = random_graph(n, p=0.2 + (seed % 4) * 0.2, seed=seed)
        chi, col = chromatic_number(g)
        assert chi == chi_exhaustive(g)
        assert is_proper(g, col)
        assert max(col.assign, default=-1) + 1 <= chi

    @pytest.mark.parametrize("seed", range(10))
    def test_witness_at_least_clique_bound(self, seed):
        g = random_graph(8, p=0.5, seed=seed)
        chi, _ = chromatic_number(g)
        assert chi >= clique_number(g)


class TestChordalFastPath:
    """A chordal component is colored along its elimination ordering, spending no node."""

    def test_trees_and_cliques(self):
        assert chromatic_number(path(7), budget=0)[0] == 2
        assert chromatic_number(complete(5), budget=0)[0] == 5
        with pytest.raises(BudgetExceededError):
            chromatic_number(cycle(5), budget=0)

    def test_chordal_vs_search_agree(self):
        # block-ish chordal graph: triangles sharing edges
        g = build_graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (2, 4)])
        chi, col = chromatic_number(g, budget=0)
        assert chi == chi_exhaustive(g) == 3
        assert is_proper(g, col)

    @pytest.mark.parametrize("g,calls", [(fan(5), 0), (cycle(5), 1)])
    def test_clique_bound_only_where_a_range_is_searched(self, monkeypatch, g, calls):
        # the fan is chordal but not a block graph: first fit answers before any bound
        seen = []
        original = chromatic.max_clique
        monkeypatch.setattr(chromatic, "max_clique", lambda *a: seen.append(a) or original(*a))
        chromatic_number(g)
        assert len(seen) == calls

    def test_elimination_order_where_degree_order_is_not_optimal(self):
        # chordal, not a block graph; first-fit in degree order takes 4 colors
        g = build_graph(7, [(0, 1), (1, 2), (1, 3), (2, 3), (2, 5), (2, 6), (3, 6), (4, 5), (5, 6)])
        assert max(greedy_coloring(g)) + 1 == 4
        chi, col = chromatic_number(g, budget=0)
        assert chi == chi_exhaustive(g) == 3
        assert is_proper(g, col)


NODE_COUNTS = {
    "petersen": (petersen(), 21), "W8": (wheel(8), 20), "W9": (wheel(9), 14),
    "icosahedron": (icosahedron(), 26), "octahedron": (octahedron(), 12),
    **{f"G({n},0.5,{s})": (random_graph(n, 0.5, s), nodes) for n, s, nodes in (
        (16, 0, 53), (16, 1, 68), (18, 0, 66), (18, 1, 50), (20, 0, 96), (22, 0, 83))},
}


@pytest.mark.parametrize("name", NODE_COUNTS)
def test_chromatic_number_node_counts(name):
    # the search from the clique bound to the first-fit count, which ends the range
    g, nodes = NODE_COUNTS[name]
    b = _Budget(10**8)
    chromatic_number(g, b)
    assert b.nodes - b.left == nodes


def test_only_the_search_calls_the_exact_coloring():
    src = Path(__file__).resolve().parent.parent / "src" / "exactcolor"
    callers = set()
    for path_ in sorted(src.glob("*.py")):
        for top in ast.parse(path_.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "_exact_k_coloring" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    callers.add((path_.name, getattr(top, "name", None)))
    assert callers == {("chromatic.py", "_search")}


class TestMaxClique:
    def test_deep_clique_does_not_recurse(self):
        # K_400 with a C4 through vertex 0: neither chordal nor a block graph, and
        # the branch and bound goes 400 levels deep
        n = 400
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = build_graph(n + 3, edges + [(0, n), (n, n + 1), (n + 1, n + 2), (n + 2, 0)])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            assert max_clique(g) == list(range(n))
            assert chromatic_number(g)[0] == n
        finally:
            sys.setrecursionlimit(limit)

    def test_petersen_triangle_free(self):
        assert clique_number(petersen()) == 2

    def test_wheel(self):
        assert clique_number(wheel(7)) == 3
        assert clique_number(wheel(4)) == 4

    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_subset_enumeration(self, seed):
        from itertools import combinations

        g = random_graph(8, p=0.5, seed=100 + seed)
        best = 0
        for size in range(1, 9):
            for vs in combinations(range(8), size):
                if all(g.has_edge(a, b) for a, b in combinations(vs, 2)):
                    best = max(best, size)
        assert clique_number(g) == best
        cl = max_clique(g)
        from itertools import combinations as comb

        assert all(g.has_edge(a, b) for a, b in comb(cl, 2))


def exact_k_coloring_by_scan(g, k, b):
    """The DSATUR search with its first pick rule, a scan over all n vertices: the reference."""
    n = g.n
    if n == 0:
        return []
    if k <= 0:
        return None
    color = [-1] * n
    nbr_colors = [set() for _ in range(n)]

    def pick():
        best, key = -1, None
        for v in range(n):
            if color[v] != -1:
                continue
            cand = (len(nbr_colors[v]), len(g.adj[v]), -v)
            if key is None or cand > key:
                best, key = v, cand
        return best

    stack = []
    b.spend()
    v, c, used = pick(), 0, 0
    while True:
        limit = min(k, used + 1)
        while c < limit and c in nbr_colors[v]:
            c += 1
        if c < limit:
            color[v] = c
            touched = [u for u in g.adj[v] if c not in nbr_colors[u]]
            for u in touched:
                nbr_colors[u].add(c)
            stack.append((v, c, used, touched))
            b.spend()
            if len(stack) == n:
                return color
            v, c, used = pick(), 0, max(used, c + 1)
        elif not stack:
            return None
        else:
            v, c, used, touched = stack.pop()
            for u in touched:
                nbr_colors[u].remove(c)
            color[v] = -1
            c += 1


def max_clique_by_scan(g, b):
    """The branch and bound of max_clique with has_edge tests at every level: the reference."""
    order = sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v))
    best = []

    def expand(clique, cand):
        nonlocal best
        b.spend()
        if len(clique) > len(best):
            best = list(clique)
        if len(clique) + len(cand) <= len(best):
            return
        for i, v in enumerate(cand):
            if len(clique) + len(cand) - i <= len(best):
                return
            clique.append(v)
            expand(clique, [u for u in cand[i + 1:] if g.has_edge(u, v)])
            clique.pop()

    expand([], order)
    return sorted(best)


def proper_k_coloring(g, k, b):
    """The one exact search at d = 0."""
    return _exact_k_coloring(g, k, 0, b)


def search(fn, g, k, b):
    """fn's coloring, or the exception it raised on running out of budget."""
    try:
        return fn(g, k, b)
    except BudgetExceededError as exc:
        return str(exc)


class TestSearchOrder:
    def test_heap_pick_matches_the_scan(self):
        # same colorings and the same nodes spent, at every k up to the greedy
        # bound; the larger dense graphs backtrack for hundreds of nodes
        deep = 0
        for seed in range(300):
            n = 2 + seed % 47
            g = random_graph(n, 0.15 + 0.7 * (seed % 7) / 6 if n < 30 else 0.5, seed)
            upper = max(greedy_coloring(g), default=-1) + 1
            for k in range(upper + 1):
                mine, ref = _Budget(600), _Budget(600)
                assert search(proper_k_coloring, g, k, mine) == \
                    search(exact_k_coloring_by_scan, g, k, ref), seed
                assert mine.left == ref.left, seed
                deep += mine.left < 600 - 2 * n
        assert deep >= 20

    def test_max_clique_candidates_match_the_has_edge_scan(self):
        # the same clique and the same nodes spent, on graphs that are not chordal
        searched = 0
        for seed in range(300):
            g = random_graph(4 + seed % 37, 0.1 + 0.8 * (seed % 9) / 8, seed)
            if is_chordal(g):
                continue
            mine, ref = _Budget(10**6), _Budget(10**6)
            assert max_clique(g, mine) == max_clique_by_scan(g, ref), seed
            assert mine.left == ref.left, seed
            searched += 1
        assert searched >= 200

    def test_max_clique_top_level_is_linear_in_m(self, monkeypatch):
        g = cycle(2001)
        calls = []
        has_edge = Graph.has_edge

        def counted(self, u, v):
            calls.append(1)
            return has_edge(self, u, v)

        monkeypatch.setattr(Graph, "has_edge", counted)
        assert len(max_clique(g)) == 2
        assert len(calls) <= 4 * g.m
