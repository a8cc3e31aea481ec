"""Exact chromatic number and maximum clique.

Chordal graphs take a mandatory fast path: greedy coloring along the
maximum-cardinality-search order is optimal and simultaneously yields the
clique number.  Everything else goes through iterative-deepening branch and
bound between an exact clique lower bound and a greedy upper bound, with a
node budget that raises instead of guessing.  Each budget parameter takes a
node count or a `_Budget` shared with the caller, so one solve can charge
every search it runs to a single budget.

Intended for graphs of moderate size (tens of vertices) and for chordal
graphs of any size; quotients by a block factor use graphs.color_factor.
"""

from __future__ import annotations

import heapq

from .coloring import Coloring, solve_by_component
from .errors import BudgetExceededError
from .graphs import Graph, connected_components, perfect_elimination_ordering

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
    peo = perfect_elimination_ordering(g)
    if peo is None:
        return None
    color = greedy_coloring(g, list(reversed(peo)))  # the maximum-cardinality-search order
    omega = max(color, default=-1) + 1
    return color, omega


def max_clique(g: Graph, budget: int | _Budget = DEFAULT_BUDGET) -> list[int]:
    """An exact maximum clique, deterministic for a given graph.

    Chordal graphs (which include block graphs) short-circuit through the
    elimination ordering; otherwise a branch and bound over candidate sets
    runs within `budget` expansion nodes.
    """
    if g.n == 0:
        return []
    peo = perfect_elimination_ordering(g)
    if peo is not None:
        pos = {v: i for i, v in enumerate(peo)}
        best: list[int] = []
        for v in peo:
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


def _exact_k_coloring(g: Graph, k: int, b: _Budget) -> list[int] | None:
    """Backtracking proper k-coloring with DSATUR ordering, on an explicit stack.

    Symmetry is broken by letting a vertex introduce at most one color that
    is new so far, so color classes appear in canonical order.
    """
    n = g.n
    if n == 0:
        return []
    if k <= 0:
        return None
    adj = g.adj
    color = [-1] * n
    nbr_colors: list[set[int]] = [set() for _ in range(n)]
    # a lazy max-heap on (saturation, degree, -v): each uncolored vertex has an
    # entry with its current saturation; entries of colored vertices and
    # outdated saturations are dropped when they reach the top
    heap = [(0, -len(adj[v]), v) for v in range(n)]
    heapq.heapify(heap)

    def push(u: int) -> None:
        heapq.heappush(heap, (-len(nbr_colors[u]), -len(adj[u]), u))

    def pick() -> int:
        if len(heap) > 4 * n:  # mostly dropped entries: rebuild from the uncolored vertices
            heap[:] = [(-len(nbr_colors[u]), -len(adj[u]), u) for u in range(n) if color[u] == -1]
            heapq.heapify(heap)
        while True:
            s, _, v = heap[0]
            if color[v] == -1 and -s == len(nbr_colors[v]):
                return v
            heapq.heappop(heap)

    # one entry per colored vertex: (v, its color, colors used before it, the
    # neighbors that color was new to); each step spends one budget node
    stack: list[tuple[int, int, int, list[int]]] = []
    b.spend()
    v, c, used = pick(), 0, 0
    while True:
        limit = min(k, used + 1)
        while c < limit and c in nbr_colors[v]:
            c += 1
        if c < limit:
            color[v] = c
            touched = [u for u in adj[v] if c not in nbr_colors[u]]
            for u in touched:
                nbr_colors[u].add(c)
                if color[u] == -1:
                    push(u)
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
                if color[u] == -1:
                    push(u)
            color[v] = -1
            push(v)
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
        attempt = _exact_k_coloring(g, k, b)
        if attempt is not None:
            return k, attempt
    return upper, upper_coloring


def chromatic_number(g: Graph, budget: int | _Budget = DEFAULT_BUDGET) -> tuple[int, Coloring]:
    """Exact chromatic number with a proper witness coloring.

    Disconnected graphs are solved componentwise; the result is the maximum
    over components.  Raises BudgetExceededError when the node budget runs
    out, so callers can report "unknown" instead of a wrong answer.
    """
    b = _Budget.of(budget)
    coloring = solve_by_component(g, connected_components(g), lambda h: _chromatic_connected(h, b))
    return coloring.k, coloring
