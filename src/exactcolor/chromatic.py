"""Exact chromatic number, maximum clique, and the one exact coloring search.

`_search` runs `_exact_k_coloring` (DSATUR order, with an exactly-d check)
on each component of the block-cut tree, for every d: it decides a given k,
or finds the fewest colors from the clique bound up.  The chromatic number
is its d = 0 case, where every proper coloring is an exact one, so a
first-fit coloring ends the range: along the elimination ordering of a
chordal component it is optimal and nothing is searched.  A block graph is
colored off its block-cut tree with as many colors as its largest block.
The searches run under a node budget that raises instead of guessing.  Each
budget parameter takes a node count or a `_Budget` shared with the caller,
so one solve can charge every search it runs to a single budget.  The
block-cut tree and the elimination ordering are the graph's own (Graph.bct,
Graph.peo), built once whoever reads them first.

Intended for graphs of moderate size (tens of vertices) and for chordal
graphs of any size; quotients by a block factor use graphs.color_factor.
"""

from __future__ import annotations

import heapq
import math

from .coloring import Coloring, feasibility_precheck
from .errors import BadParameterError, BudgetExceededError
from .graphs import Graph, color_factor, induced_subgraph

DEFAULT_BUDGET = 10**8


class _Budget:
    __slots__ = ("nodes", "left")

    def __init__(self, nodes: int):
        self.nodes = nodes
        self.left = nodes

    @classmethod
    def of(cls, budget: int | _Budget) -> _Budget:
        """A shared budget as it is, or a fresh one of `budget` nodes."""
        return budget if isinstance(budget, _Budget) else cls(budget)

    def spend(self):
        if not self.left:
            raise BudgetExceededError(nodes=self.nodes)
        self.left -= 1


def greedy_coloring(g: Graph, order: list[int] | None = None) -> list[int]:
    """First-fit coloring along `order` (default: descending degree)."""
    if order is None:
        order = sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v))
    color = [-1] * g.n
    for v in order:
        used = {color[u] for u in g.adj[v] if color[u] != -1}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    return color


def max_clique(g: Graph, budget: int | _Budget = DEFAULT_BUDGET) -> list[int]:
    """An exact maximum clique, deterministic for a given graph.

    Chordal graphs (which include block graphs) short-circuit through the
    elimination ordering; otherwise a branch and bound over candidate sets
    runs on an explicit stack within `budget` expansion nodes.
    """
    if g.n == 0:
        return []
    if g.peo is not None:
        pos = {v: i for i, v in enumerate(g.peo)}
        best: list[int] = []
        for v in g.peo:
            cand = [v] + [w for w in g.adj[v] if pos[w] > pos[v]]
            if len(cand) > len(best):
                best = cand
        return sorted(best)

    b = _Budget.of(budget)
    order = sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v))
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    best, clique = [], []  # clique holds the vertex picked at each level below the top
    stack = [(order, 0)]  # (candidates, next index) per level
    b.spend()
    while stack:
        cand, i = stack[-1]
        if len(clique) + len(cand) - i <= len(best):  # cand[i:] cannot beat best
            stack.pop()
            if clique:
                clique.pop()
            continue
        v = cand[i]
        stack[-1] = (cand, i + 1)
        if clique:
            later = [u for u in cand[i + 1:] if g.has_edge(u, v)]
        else:  # the top level, where cand is order: v's later neighbors, in order
            later = sorted([w for w in g.adj[v] if pos[w] > i], key=pos.__getitem__)
        clique.append(v)
        b.spend()
        if len(clique) > len(best):
            best = list(clique)
        stack.append((later, 0))
    return sorted(best)


def clique_number(g: Graph, budget: int | _Budget = DEFAULT_BUDGET) -> int:
    return len(max_clique(g, budget))


def clique_lower_bound(g: Graph, d: int, budget: int | _Budget = DEFAULT_BUDGET) -> int:
    """ceil(omega / (d+1)): no color may appear more than d+1 times in a clique."""
    if d < 0:
        raise BadParameterError("defect must be nonnegative")
    return math.ceil(len(max_clique(g, budget)) / (d + 1))


def _exact_k_coloring(g: Graph, k: int, d: int, b: _Budget) -> list[int] | None:
    """Backtracking exact (k, d)-coloring in DSATUR order, on an explicit stack.

    Each step colors the uncolored vertex with the most distinct neighbor
    colors (then the highest degree, then the lowest index), and may open at
    most one new color; the pick depends only on the coloring up to a
    renaming of colors, so each class pattern is tried once.  A move must
    leave v and, when d > 0, each colored neighbor with at most d neighbors
    of its own color and enough uncolored ones to reach d, so a vertex's
    count is checked final when its last neighbor is placed.  At d = 0 this
    is DSATUR's proper coloring.  One budget node at the start and per move.
    """
    n = g.n
    if n == 0:
        return []
    if k <= 0:
        return None
    k = min(k, n)  # a search never uses more than n colors
    adj = g.adj
    deg = [len(a) for a in adj]
    color = [-1] * n
    # cnt[v][c]: neighbors of v colored c; sat[v]: the nonzero entries of cnt[v]
    cnt = [[0] * k for _ in range(n)]
    sat = [0] * n
    # a lazy max-heap on (saturation, degree, -v): each uncolored vertex has an
    # entry with its current saturation; entries of colored vertices and
    # outdated saturations are dropped when they reach the top
    heap = [(0, -deg[v], v) for v in range(n)]
    heapq.heapify(heap)
    push = heapq.heappush

    def pick() -> int:
        if len(heap) > 4 * n:  # mostly dropped entries: rebuild from the uncolored vertices
            heap[:] = [(-sat[u], -deg[u], u) for u in range(n) if color[u] == -1]
            heapq.heapify(heap)
        while True:
            s, _, v = heap[0]
            if color[v] == -1 and -s == sat[v]:
                return v
            heapq.heappop(heap)

    def place(v: int, c: int) -> None:
        color[v] = c
        for u in adj[v]:
            cu = cnt[u]
            cu[c] += 1
            if cu[c] == 1:
                sat[u] += 1
                if color[u] == -1:
                    push(heap, (-sat[u], -deg[u], u))

    def unplace(v: int, c: int) -> None:
        color[v] = -1
        for u in adj[v]:
            cu = cnt[u]
            cu[c] -= 1
            if not cu[c]:
                sat[u] -= 1
                if color[u] == -1:
                    push(heap, (-sat[u], -deg[u], u))

    stack: list[tuple[int, int, int]] = []  # (v, its color, colors used before it)
    b.spend()
    v, c, used = pick(), 0, 0
    while True:
        limit = min(k, used + 1)
        cv = cnt[v]
        low = d - deg[v] + sum(cv)  # v's uncolored neighbors must be able to lift it to d
        while c < limit and not low <= cv[c] <= d:
            c += 1
        if c < limit:
            place(v, c)
            # at d = 0 a move cannot break a neighbor; u has deg[u] - sum(cnt[u]) uncolored ones
            if d and not all(color[u] == -1 or d - deg[u] + sum(cnt[u]) <= cnt[u][color[u]] <= d
                             for u in adj[v]):
                unplace(v, c)
                c += 1
                continue
            stack.append((v, c, used))
            b.spend()
            if len(stack) == n:
                return color
            v, c, used = pick(), 0, max(used, c + 1)
        elif not stack:
            return None
        else:
            v, c, used = stack.pop()
            unplace(v, c)
            push(heap, (-sat[v], -deg[v], v))
            c += 1


def _kcap(order: int, block: int, d: int) -> int:
    # see oracle.brute_chi; a component with no block is one vertex
    return max(1, min(order // (d + 1), block))


def _search(g: Graph, d: int, b: _Budget, k: int | None = None) -> Coloring | None:
    """The exact search on each component of g's block-cut tree (Graph.bct).

    Each component takes k colors, or without k the fewest from its clique
    bound up to _kcap.  At d = 0 a first-fit coloring ends that range and
    answers when every smaller count fails; on a chordal component it runs
    along the reversed elimination ordering, is optimal and answers at once,
    so the clique bound is computed only where a range is searched.  Color
    classes may merge across components, so the joined coloring offers the
    largest count.  None when the precheck or some component fails.
    """
    if not feasibility_precheck(g, d):
        return None

    def solve_one(h: Graph, block: int):
        cap = _kcap(h.n, block, d)
        last = None  # the answer when every count tried fails
        if k is not None:
            tries = (k,)
        else:
            upper = cap + 1
            if not d:  # every proper coloring is exact, so a first-fit one bounds the range
                color = greedy_coloring(h, None if h.peo is None else h.peo[::-1])
                upper = max(color) + 1
                last = upper, color
                if h.peo is not None:  # optimal along the elimination ordering
                    return last
            tries = range(min(clique_lower_bound(h, d, b), cap), upper)
        for kk in tries:
            color = _exact_k_coloring(h, kk, d, b)
            if color is not None:
                return kk, color
        return last

    components = g.bct.components()
    if len(components) == 1:  # a connected g is searched as it is
        out = solve_one(g, components[0][1])
        return None if out is None else Coloring(out[0], tuple(out[1]))
    colors, assign = 0, [0] * g.n
    for comp, block in components:
        sub, verts = induced_subgraph(g, comp)
        out = solve_one(sub, block)
        if out is None:
            return None
        colors = max(colors, out[0])
        for v, c in zip(verts, out[1]):
            assign[v] = c
    return Coloring(colors, tuple(assign))


def chromatic_number(g: Graph, budget: int | _Budget = DEFAULT_BUDGET) -> tuple[int, Coloring]:
    """Exact chromatic number with a proper witness coloring.

    A block graph is colored off its block-cut tree in linear time, each
    vertex its own class of graphs.color_factor: k is its largest block (a
    clique), 1 with no edge.  Other graphs go to _search at d = 0, per
    component of the tree; the result is the maximum over components.
    Raises BudgetExceededError when the node budget runs out.
    """
    if g.bct.is_block_graph:
        k, color = color_factor(g.n, g.bct.sweep, [(v,) for v in range(g.n)])
        return k, Coloring(k, tuple(color))
    coloring = _search(g, 0, _Budget.of(budget))
    return coloring.k, coloring
