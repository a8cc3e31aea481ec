"""Simple undirected graphs and the structural decompositions built on them.

Vertices are dense 0-based integers.  A Graph is immutable after
construction: algorithms in this package never mutate a graph in place, they
build new ones.  Duplicate input edges are collapsed silently; self-loops are
rejected because they change the semantics of degree-based definitions.
"""

from __future__ import annotations

import heapq
import operator
import sys
from collections import deque
from functools import cached_property
from typing import NamedTuple

from .errors import (
    DisconnectedClassError,
    NotAPartitionError,
    OutOfRangeError,
    SelfLoopError,
)


class Graph:
    """Immutable simple undirected graph with sorted adjacency lists; it keeps what it builds."""

    __slots__ = ("n", "adj", "_adjsets", "_m", "_bct", "_peo")

    def __init__(self, n: int, adj: tuple[tuple[int, ...], ...]):
        self.n = n
        self.adj = adj
        self._adjsets = None
        self._m = sum(map(len, adj)) // 2
        self._bct = None
        self._peo = False  # not built yet; None: not chordal

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def min_degree(self) -> int:
        return min(map(len, self.adj), default=0)

    def max_degree(self) -> int:
        return max(map(len, self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        if self._adjsets is None:  # built on first use: most graphs are never asked
            self._adjsets = tuple(frozenset(a) for a in self.adj)
        return v in self._adjsets[u]

    @property
    def bct(self) -> BlockCutTree:
        """The block-cut tree, built on first use: every solver here reads it."""
        if self._bct is None:
            self._bct = block_cut_tree(self)
        return self._bct

    @property
    def peo(self) -> tuple[int, ...] | None:
        """A perfect elimination ordering, None when not chordal; built on first use."""
        if self._peo is False:
            self._peo = perfect_elimination_ordering(self)
        return self._peo

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edges) -> Graph:
    """Build a graph from an edge list, validating and normalizing it.

    Endpoints must lie in [0, n); self-loops raise SelfLoopError.  Duplicate
    edges (in either orientation) collapse to one.  Pairs (u, v) with u < v
    in strictly increasing order, as Graph.edges and write_graph list them,
    leave every neighbor list sorted and distinct, so they skip that step.
    """
    if n < 0:
        raise OutOfRangeError("vertex count must be nonnegative")
    nbr: list[list[int]] = [[] for _ in range(n)]  # deduplicated at the end: sets cost 5x the memory
    ids = list(range(n))  # one int object per vertex, not one per endpoint the input names
    ordered = True
    pu = pv = -1
    for u, v in edges:
        if 0 <= u < v < n:
            if v <= pv and u == pu or u < pu:
                ordered = False
            pu = u
            pv = v
        else:
            if not (0 <= u < n and 0 <= v < n):
                raise OutOfRangeError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            ordered = False
        nbr[u].append(ids[v])
        nbr[v].append(ids[u])
    if ordered:
        return Graph(n, tuple(map(tuple, nbr)))
    return Graph(n, tuple(map(tuple, map(sorted, map(set, nbr)))))


def connected_components(g: Graph) -> list[list[int]]:
    """Sorted component vertex sets by minimum vertex; the solves read BlockCutTree.components."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, list[int]]:
    """Subgraph induced by `vertices`; returns it plus the old-index list.

    New vertex i corresponds to the i-th vertex of sorted(vertices).
    """
    verts = sorted(vertices)
    index = {v: i for i, v in enumerate(verts)}
    edges = [(index[u], index[v]) for u in verts for v in g.adj[u] if u < v and v in index]
    return build_graph(len(verts), edges), verts


def is_bipartite(g: Graph) -> tuple[bool, list[int] | None]:
    """BFS 2-coloring.  Returns (True, side list) or (False, None)."""
    side = [-1] * g.n
    for s in range(g.n):
        if side[s] != -1:
            continue
        side[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if side[w] == -1:
                    side[w] = 1 - side[u]
                    queue.append(w)
                elif side[w] == side[u]:
                    return False, None
    return True, side


# ---------------------------------------------------------------------------
# Blocks (maximal biconnected components)
# ---------------------------------------------------------------------------

class BlockCutTree(NamedTuple):
    """Blocks of a graph, in the order a depth-first search closes them.

    Every edge lies in exactly one block; a vertex is a cut vertex iff it
    lies in two or more blocks.  Isolated vertices belong to no block.
    Each block is a ring that starts at its entry vertex, the one the
    search reached first; on a cycle block the ring runs around the cycle.
    A triangle block counts toward both is_cactus and is_block_graph.

    sweep holds each block's ring and each component's root r, its smallest
    vertex, as the 1-ring (r,), in closing order; blocks is its rings of two
    or more vertices.  A block closes after every block entered at one of
    its other vertices, and a root after its whole component, so the sweep
    runs leaves first, and in reverse it reaches each entry before its ring.
    component_orders holds each component's vertex count, in root order.
    """

    sweep: tuple[tuple[int, ...], ...]
    component_orders: tuple[int, ...]
    is_cactus: bool          # every block is an edge or a cycle
    is_block_graph: bool     # every block is a clique

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(ring for ring in self.sweep if len(ring) > 1)

    def components(self) -> list[tuple[list[int], int]]:
        """(vertices, largest block size or 1) of each component, in root order.

        A component's rings close before its root's 1-ring, and each of its
        other vertices is a non-entry vertex of exactly one of them.
        """
        comps, verts, big = [], [], 1
        for ring in self.sweep:
            if len(ring) == 1:
                comps.append((verts + [ring[0]], big))
                verts, big = [], 1
            else:
                verts += ring[1:]
                big = max(big, len(ring))
        return comps


def block_cut_tree(g: Graph) -> BlockCutTree:
    """Hopcroft-Tarjan biconnected components, iteratively (no recursion limit).

    A block closes when the search returns from v to u with low[v] >=
    disc[u].  Its ring is u and the vertices pushed on the vertex stack
    since v, which on a cycle run in cyclic order; a root closes as its
    1-ring after its component.  The tree edge to the parent also lowers
    low[v], to disc[u] at most, which changes no test against disc[u].

    The classes come from the block sizes b_B alone, with no edge count.
    Let c be the number of components.  Every edge lies in one block, and
    the blocks and cut vertices of a component form a tree, so
    sum_B (b_B - 1) = n - c and, with e_B the edges of block B,
    sum_B (e_B - b_B + 1) = m - n + c.  A block of three or more vertices
    is 2-connected, so it adds at least 1, and exactly 1 only when it is a
    cycle; an edge adds 0.  So g is a cactus iff m - n + c equals the number
    of blocks with three or more vertices.  And e_B <= b_B(b_B - 1) / 2
    with equality only on a clique, so g is a block graph iff
    sum_B b_B(b_B - 1) = 2m.
    """
    n, adj = g.n, g.adj
    disc = [-1] * n
    low = [0] * n
    vpos = [0] * n          # index of v in the vertex stack
    vstack: list[int] = []
    timer = 0
    sweep, orders = [], []

    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, iter(adj[root]))]
        while stack:
            v, it = stack[-1]
            lv = low[v]
            for w in it:
                dw = disc[w]
                if dw == -1:
                    low[v] = lv
                    vpos[w] = len(vstack)
                    vstack.append(w)
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, iter(adj[w])))
                    break
                if dw < lv:
                    lv = dw
            else:
                stack.pop()
                if not stack:
                    continue
                u = stack[-1][0]
                if lv < low[u]:
                    low[u] = lv
                if lv >= disc[u]:
                    sweep.append((u, *vstack[vpos[v]:]))
                    del vstack[vpos[v]:]
        sweep.append((root,))
        orders.append(timer - disc[root])  # the component's vertices are numbered last

    sizes = list(map(len, sweep))  # a root's 1-ring adds 0 to the block graph sum
    return BlockCutTree(
        sweep=tuple(sweep),
        component_orders=tuple(orders),
        is_cactus=g.m - n + len(orders) == len(sizes) - sizes.count(1) - sizes.count(2),
        is_block_graph=sum(map(operator.mul, sizes, sizes)) - sum(sizes) == 2 * g.m,
    )


def block_factor(n: int, sweep, r: int, cyclic: bool = False) -> list[tuple[int, ...]] | None:
    """A split of all n vertices into classes inside blocks, or None if there is none.

    sweep is a leaves-first block sweep (BlockCutTree.sweep).  Each ring
    covers its free (not yet covered) non-entry vertices, which no later
    ring can reach.  It takes its entry vertex exactly when their count
    leaves remainder r - 1, and fails if a sibling block has taken it
    already; any other nonzero remainder fails, and so does a 1-ring (a
    root) left free.  Both moves are forced, so the pass is exact.  A clique
    block groups the vertices it covers in sorted runs of r.  When cyclic,
    the graph is a cactus and a ring of three or more vertices is a cycle.
    At r = 2 it pairs consecutive ring vertices, arc by arc between the
    vertices it does not cover, and an odd arc fails; at r = 3 it is one
    class, the ring itself, or covers nothing, and fails if partly taken;
    at larger r it fails unless it covers nothing.  Classes come in the
    order the pass makes them.  Linear time; the pass reads the sweep no
    further than the ring it fails at.
    """
    taken = bytearray(n)
    is_taken = taken.__getitem__
    whole = cyclic and r > 2
    classes: list[tuple[int, ...]] = []
    for ring in sweep:
        entry = ring[0]
        if len(ring) == 1 and not taken[entry]:
            return None  # a root no block took, e.g. an isolated vertex
        if taken[ring[-1]] and (len(ring) < 3 or sum(map(is_taken, ring[1:])) == len(ring) - 1):
            continue  # nothing left to cover (a root has no non-entry vertex)
        if whole and len(ring) > 2:
            if r > 3 or any(map(is_taken, ring)):
                return None  # no K_r in a cycle, or it is partly taken, or its entry vertex is
            classes.append(ring)
            for w in ring:
                taken[w] = 1
            continue
        free = [w for w in ring[1:] if not taken[w]]
        take = len(free) % r == r - 1
        if take:
            if taken[entry]:
                return None  # a sibling block took the entry vertex
            free.append(entry)
        elif len(free) % r:
            return None
        if cyclic and len(ring) > 2:
            cover = [take] + [not taken[w] for w in ring[1:]]
            # walk once around, starting after a vertex the ring does not cover
            start = cover.index(False) + 1 if not all(cover) else 0
            pending = None
            for w, c in zip(ring[start:] + ring[:start], cover[start:] + cover[:start]):
                if not c:
                    if pending is not None:
                        return None  # an odd arc
                elif pending is None:
                    pending = w
                else:
                    classes.append((pending, w))
                    pending = None
        else:
            free.sort()
            classes.extend(zip(*[iter(free)] * r))  # consecutive runs of r
        for w in free:
            taken[w] = 1
    return classes


def color_factor(n: int, sweep, classes, cyclic: bool = False) -> tuple[int, list[int]]:
    """An optimal proper coloring of the quotient by a block factor, as (k, color per vertex).

    classes are block_factor's over the same sweep (when cyclic, at r = 3
    the M cycles of a cactus), which cover every vertex.  The rings are
    read in reverse, root first: each ring's entry vertex has a colored
    class, and every other class that touches the ring is new here.  A
    clique ring (or a root's 1-ring) gives its new classes 0, 1, 2, ... and
    skips the entry's color, which is first fit over the ring.  When
    cyclic, a ring of three or more vertices is a cycle: each new run of
    one class along it takes the smallest color that differs from the runs
    before and after it, of which only the entry's can be colored; an M
    cycle is all the entry's run and is skipped.  Why k is optimal: see the
    blockgraph and cactus modules.  Linear time.
    """
    cls = [0] * n
    for i, c in enumerate(classes):
        for v in c:
            cls[v] = i
    ccolor = [-1] * len(classes)
    for ring in reversed(sweep):
        b = len(ring)
        if b == 1:  # a root, whose class is new
            ccolor[cls[ring[0]]] = 0
        elif b == 2:  # a bridge: a new class at its far end avoids the entry's color
            x = cls[ring[1]]
            if ccolor[x] == -1:
                ccolor[x] = 1 if ccolor[cls[ring[0]]] == 0 else 0
        elif cyclic:
            if cls[ring[1]] == cls[ring[-1]] == cls[ring[0]]:
                continue  # an M cycle: all of it is the entry's class
            for j in range(1, b):
                x = cls[ring[j]]
                if ccolor[x] == -1:  # a new run, of one vertex or two
                    step = 2 if cls[ring[(j + 1) % b]] == x else 1
                    banned = (ccolor[cls[ring[j - 1]]], ccolor[cls[ring[(j + step) % b]]])
                    c = 0
                    while c in banned:
                        c += 1
                    ccolor[x] = c
        else:  # a clique of three or more vertices: new classes count up past the entry's color
            entry = ccolor[cls[ring[0]]]
            c = 0
            for x in map(cls.__getitem__, ring):
                if ccolor[x] == -1:
                    if c == entry:
                        c += 1
                    ccolor[x] = c
                    c += 1
    color = list(map(ccolor.__getitem__, cls))
    return max(color, default=-1) + 1, color


# ---------------------------------------------------------------------------
# Class recognizers
# ---------------------------------------------------------------------------

def maximum_cardinality_search(g: Graph) -> list[int]:
    """MCS visit order (ties broken by lowest index), via a lazy max-heap."""
    n = g.n
    weight = [0] * n
    visited = [False] * n
    heap = [(0, v) for v in range(n)]   # (-weight, vertex); initial weights all 0
    heapq.heapify(heap)
    order = []
    while heap:
        negw, v = heapq.heappop(heap)
        if visited[v] or -negw != weight[v]:
            continue
        visited[v] = True
        order.append(v)
        for w in g.adj[v]:
            if not visited[w]:
                weight[w] += 1
                heapq.heappush(heap, (-weight[w], w))
    return order


def perfect_elimination_ordering(g: Graph) -> tuple[int, ...] | None:
    """A perfect elimination ordering if the graph is chordal, else None.

    The reverse of the MCS visit order is a PEO iff the graph is chordal;
    the candidate is verified with the standard parent-subset test.
    """
    peo = tuple(reversed(maximum_cardinality_search(g)))
    pos = {v: i for i, v in enumerate(peo)}
    for v in peo:
        later = [w for w in g.adj[v] if pos[w] > pos[v]]
        if not later:
            continue
        u = min(later, key=lambda w: pos[w])
        rest = [w for w in later if w != u]
        if any(not g.has_edge(u, w) for w in rest):
            return None
    return peo


def is_chordal(g: Graph) -> bool:
    return g.peo is not None


def is_d_regular(g: Graph, d: int) -> bool:
    return set(map(len, g.adj)) <= {d}


def is_tree(g: Graph) -> bool:
    """Connected with n - 1 edges (one vertex counts; the empty graph does not)."""
    return g.n >= 1 and g.m == g.n - 1 and len(g.bct.component_orders) == 1


class GraphClasses:
    """Structural facts about one graph, each computed on first use and then kept."""

    def __init__(self, g: Graph):
        self.g = g

    @property
    def is_cactus(self) -> bool:
        return self.g.bct.is_cactus

    @property
    def is_block_graph(self) -> bool:
        return self.g.bct.is_block_graph

    @cached_property
    def regular_degree(self) -> int | None:
        """d if the graph is d-regular (and nonempty), else None."""
        degs = set(map(len, self.g.adj))
        return degs.pop() if len(degs) == 1 else None

    @cached_property
    def wheel_order(self) -> list[int] | None:
        """The rim in cyclic order, then the hub, when the graph is a wheel, else None."""
        g = self.g
        if g.n < 4 or g.m != 2 * (g.n - 1):
            return None
        hub = max(range(g.n), key=g.degree)
        if g.degree(hub) != g.n - 1 or sum(len(a) == 3 for a in g.adj) < g.n - 1:
            return None
        # degree 3 leaves each rim vertex two rim neighbors; walk them from
        # the smallest toward its smaller one, and the rim must be one cycle
        start = 1 if hub == 0 else 0
        order = [start]
        prev, cur = start, min(w for w in g.adj[start] if w != hub)
        while cur != start:
            order.append(cur)
            a, b = (w for w in g.adj[cur] if w != hub)
            prev, cur = cur, b if a == prev else a
        return order + [hub] if len(order) == g.n - 1 else None


def recognize(g: Graph) -> GraphClasses:
    """Classify g (cactus / block graph / regular / wheel) lazily."""
    return GraphClasses(g)


# ---------------------------------------------------------------------------
# Matchings
# ---------------------------------------------------------------------------

class Matching(NamedTuple):
    """A set of pairwise vertex-disjoint edges of some host graph."""

    edges: tuple[tuple[int, int], ...]
    perfect: bool = False


def perfect_matchings(g: Graph, limit: int | None = None) -> list[Matching]:
    """Enumerate perfect matchings by backtracking.

    The lowest unmatched vertex is matched to its unmatched neighbors in
    ascending order, so the output order is deterministic and results
    truncated by `limit` are reproducible.  Empty when n is odd or no
    perfect matching exists.
    """
    if g.n % 2 == 1:
        return []
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, g.n + 200))
    matched = [False] * g.n
    chosen: list[tuple[int, int]] = []
    out: list[Matching] = []

    def rec(start: int) -> bool:
        # returns True when the limit has been hit
        v = start
        while v < g.n and matched[v]:
            v += 1
        if v == g.n:
            out.append(Matching(tuple(chosen), perfect=True))
            return limit is not None and len(out) >= limit
        matched[v] = True
        for u in g.adj[v]:
            if matched[u]:
                continue
            matched[u] = True
            chosen.append((v, u))
            if rec(v + 1):
                matched[u] = False
                chosen.pop()
                matched[v] = False
                return True
            chosen.pop()
            matched[u] = False
        matched[v] = False
        return False

    try:
        rec(0)
    finally:
        sys.setrecursionlimit(old_limit)
    return out


# ---------------------------------------------------------------------------
# Contraction
# ---------------------------------------------------------------------------

def contract_partition(g: Graph, parts) -> Graph:
    """Quotient graph: one vertex per class, classes adjacent iff a cross edge exists.

    The classes must partition V(g) and each must induce a connected
    subgraph; only such contractions occur in this package (matched pairs,
    cycles, cliques), so anything else is treated as a caller bug.
    """
    parts = list(parts)
    cls = [-1] * g.n
    for i, p in enumerate(parts):
        if not p:
            raise NotAPartitionError("empty class")
        for v in p:
            if not 0 <= v < g.n or cls[v] != -1:
                raise NotAPartitionError("classes do not partition the vertex set")
            cls[v] = i
    if -1 in cls:
        raise NotAPartitionError("classes do not partition the vertex set")

    reached = [False] * g.n
    for i, p in enumerate(parts):
        # search inside the class from one of its vertices
        stack = [next(iter(p))]
        reached[stack[0]] = True
        count = 1
        while stack:
            for w in g.adj[stack.pop()]:
                if cls[w] == i and not reached[w]:
                    reached[w] = True
                    count += 1
                    stack.append(w)
        if count != len(p):
            raise DisconnectedClassError(f"class {i} does not induce a connected subgraph")

    # each edge is seen from both ends, so every cross edge shows up as (low, high) once
    qedges = {(cls[u], cls[w]) for u in range(g.n) for w in g.adj[u] if cls[u] < cls[w]}
    return build_graph(len(parts), qedges)
