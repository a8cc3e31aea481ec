"""Exact chromatic number and maximum clique.

A block graph is colored off its block-cut tree with as many colors as its
largest block.  Other chordal graphs take a mandatory fast path: greedy
coloring along the maximum-cardinality-search order is optimal and
simultaneously yields the clique number.  Everything else tries each k
from an exact clique lower bound up to a greedy upper bound with
`_exact_k_coloring`, the package's one exact search (DSATUR order, with an
exactly-d check that the oracle uses at d >= 1), under a node budget that
raises instead of guessing.  Each budget parameter takes a node count or a
`_Budget` shared with the caller, so one solve can charge every search it
runs to a single budget.  The block-cut tree and the elimination ordering
are the graph's own (Graph.bct, Graph.peo), built once whoever reads them
first.

Intended for graphs of moderate size (tens of vertices) and for chordal
graphs of any size; quotients by a block factor use graphs.color_factor.
"""

from __future__ import annotations

import heapq

from .coloring import Coloring, solve_by_component
from .errors import BudgetExceededError
from .graphs import Graph, color_factor

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

    def spend(self, amount: int = 1):
        if amount > self.left:
            raise BudgetExceededError(nodes=self.nodes - self.left)
        self.left -= amount


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


def chordal_greedy(g: Graph) -> tuple[list[int], int] | None:
    """(optimal coloring, clique number) when g is chordal, else None."""
    if g.peo is None:
        return None
    color = greedy_coloring(g, g.peo[::-1])  # the maximum-cardinality-search order
    return color, max(color, default=-1) + 1


def max_clique(g: Graph, budget: int | _Budget = DEFAULT_BUDGET) -> list[int]:
    """An exact maximum clique, deterministic for a given graph.

    Chordal graphs (which include block graphs) short-circuit through the
    elimination ordering; otherwise a branch and bound over candidate sets
    runs within `budget` expansion nodes.
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
    best: list[int] = []

    def expand(clique: list[int], cand: list[int]):
        nonlocal best
        b.spend()
        if len(clique) > len(best):
            best = list(clique)
        if len(clique) + len(cand) <= len(best):
            return
        for i, v in enumerate(cand):
            if len(clique) + len(cand) - i <= len(best):
                return
            if clique:
                later = [u for u in cand[i + 1:] if g.has_edge(u, v)]
            else:  # the top level, where cand is order: v's later neighbors, in order
                later = sorted([w for w in g.adj[v] if pos[w] > i], key=pos.__getitem__)
            clique.append(v)
            expand(clique, later)
            clique.pop()

    expand([], order)
    return sorted(best)


def clique_number(g: Graph, budget: int | _Budget = DEFAULT_BUDGET) -> int:
    return len(max_clique(g, budget))


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


def _chromatic_connected(g: Graph, b: _Budget) -> tuple[int, list[int]]:
    fast = chordal_greedy(g)
    if fast is not None:
        color, omega = fast
        return omega, color
    lower = len(max_clique(g, b))
    upper_coloring = greedy_coloring(g)
    upper = max(upper_coloring, default=-1) + 1
    for k in range(lower, upper):
        attempt = _exact_k_coloring(g, k, 0, b)
        if attempt is not None:
            return k, attempt
    return upper, upper_coloring


def chromatic_number(g: Graph, budget: int | _Budget = DEFAULT_BUDGET) -> tuple[int, Coloring]:
    """Exact chromatic number with a proper witness coloring.

    A block graph is colored off its block-cut tree in linear time, each
    vertex its own class of graphs.color_factor: k is its largest block (a
    clique), 1 with no edge.  Other graphs are solved per component of the
    tree; the result is the maximum over components.  Raises
    BudgetExceededError when the node budget runs out.
    """
    if g.bct.is_block_graph:
        k, color = color_factor(g.n, g.bct.sweep, [(v,) for v in range(g.n)])
        return k, Coloring(k, tuple(color))
    b = _Budget.of(budget)
    coloring = solve_by_component(g, g.bct.components(), lambda h, _: _chromatic_connected(h, b))
    return coloring.k, coloring
