"""Shared corpus builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's search machinery so that
agreement tests compare genuinely different computations: set-partition
filtering for regular partitions, edge-subset filtering for matchings, and
a plain proper-coloring sweep for chromatic numbers.
"""

import random
from itertools import combinations, product

import pytest

from exactcolor import Graph, build_graph, cactus_label, cactus_preprocess, is_proper, Coloring


def set_partitions(items):
    """All partitions of a list, by recursive first-element placement."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]
        yield [[first]] + smaller


def induces_connected_regular(g: Graph, verts, d: int) -> bool:
    vs = set(verts)
    for v in verts:
        if sum(1 for u in g.adj[v] if u in vs) != d:
            return False
    # connectivity by DFS inside the class
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w in vs and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vs


def regular_partitions_filter(g: Graph, d: int) -> set:
    """Independent oracle: filter all set partitions (use only for n <= 8)."""
    found = set()
    for parts in set_partitions(list(range(g.n))):
        if all(induces_connected_regular(g, p, d) for p in parts):
            found.add(frozenset(frozenset(p) for p in parts))
    return found


def perfect_matchings_filter(g: Graph) -> set:
    """Independent oracle: filter edge subsets of size n/2 (n <= 12)."""
    if g.n % 2 == 1:
        return set()
    edges = g.edges()
    found = set()
    for subset in combinations(edges, g.n // 2):
        verts = [v for e in subset for v in e]
        if len(set(verts)) == g.n:
            found.add(frozenset(subset))
    return found


def chi_exhaustive(g: Graph) -> int:
    """Independent chromatic number: plain sweep, no cliques, no DSATUR.

    n <= 5 tries every assignment through is_proper; 6 <= n <= 8 uses a
    minimal fixed-order backtracker.
    """
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        if g.n <= 5:
            if any(
                is_proper(g, Coloring(k, assign))
                for assign in product(range(k), repeat=g.n)
            ):
                return k
        else:
            color = [-1] * g.n

            def ok(v, c):
                return all(color[u] != c for u in g.adj[v] if u < v)

            def rec(v):
                if v == g.n:
                    return True
                for c in range(k):
                    if ok(v, c):
                        color[v] = c
                        if rec(v + 1):
                            return True
                        color[v] = -1
                return False

            if rec(0):
                return k
    return g.n


def exact_coloring_exists_naive(g: Graph, k: int, d: int) -> bool:
    """Independent decision oracle: try every assignment (tiny graphs only)."""
    from exactcolor import is_exact_coloring

    return any(
        is_exact_coloring(g, Coloring(k, assign), d)
        for assign in product(range(k), repeat=g.n)
    )



def permuted(g: Graph, perm) -> Graph:
    """The graph pi(g): vertex v of g becomes vertex perm[v]."""
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def relabeled_union(members, rng) -> Graph:
    """The disjoint union of `members`, renumbered at random so that their vertices interleave."""
    edges, size = [], 0
    for h in members:
        edges += [(u + size, v + size) for u, v in h.edges()]
        size += h.n
    return permuted(build_graph(size, edges), rng.sample(range(size), size))


def m_cycle_sets(g: Graph):
    """The vertex sets of the cycles the cactus labeler marks M, or None on rejection."""
    aux = cactus_preprocess(g)
    labels = cactus_label(aux).labels
    if labels is None:
        return None
    return {frozenset(c) for c, lab in zip(aux.cycles, labels) if lab == "M"}


def planted_cactus(n: int, seed: int, perturb: str | None = None):
    """A connected cactus on at most n >= 5 vertices, built around a planted cycle factor.

    Returns (g, factor): factor lists the vertex sets of disjoint cycles
    (the monochromatic ones) that cover every vertex.  Starting from one
    such cycle, each step hangs a new one off an existing vertex by a
    bridge, or runs a polychromatic cycle of length 3..6 through an
    existing vertex and fresh vertices, each fresh vertex on a new factor
    cycle of its own.  The factor is then the only one, and chi_2 is 1, 2
    or 3 as the graph is one cycle, every polychromatic cycle is even, or
    some is odd.  perturb adds one piece that leaves no cycle factor:
    "pendant" a pendant vertex, "triangle" a fresh vertex on both ends of a
    bridge (or a triangle on one vertex when there is no bridge), "bare" a
    cycle of fresh vertices through one existing vertex, "p_only" a fresh
    vertex, bridged to the rest, on two polychromatic triangles (13
    vertices), so no cycle through it owns a vertex on no other cycle.
    """
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    factor: list[frozenset] = []
    bridges: list[tuple[int, int]] = []

    def ring(verts):
        edges.extend((verts[i], verts[i - 1]) for i in range(len(verts)))

    def m_cycle(verts):
        ring(verts)
        factor.append(frozenset(verts))

    spare = {None: 0, "pendant": 1, "p_only": 13}.get(perturb, 2)  # room for the perturbation
    first = rng.randint(3, min(6, max(3, n - spare)))
    m_cycle(list(range(first)))
    cur = first
    while n - spare - cur >= 3:
        room = n - spare - cur
        anchor = rng.randrange(cur)
        if room >= 6 and rng.random() < 0.5:
            # a polychromatic cycle; each fresh vertex gets its own factor cycle
            fresh = list(range(cur, cur + rng.randint(2, min(5, room // 3))))
            ring([anchor] + fresh)
            cur += len(fresh)
            for j, v in enumerate(fresh):
                left = n - spare - cur - 2 * (len(fresh) - 1 - j)  # 2 for each later one
                size = rng.randint(3, min(6, left + 1))
                m_cycle([v] + list(range(cur, cur + size - 1)))
                cur += size - 1
        else:
            size = rng.randint(3, min(6, room))
            m_cycle(list(range(cur, cur + size)))
            edges.append((anchor, cur))
            bridges.append((anchor, cur))
            cur += size
    if perturb == "pendant":
        edges.append((rng.randrange(cur), cur))
        cur += 1
    elif perturb == "triangle" and bridges:
        u, v = rng.choice(bridges)
        edges += [(u, cur), (v, cur)]
        cur += 1
    elif perturb in ("triangle", "bare"):
        size = 3 if perturb == "triangle" else rng.randint(3, min(6, n - cur + 1))
        ring([rng.randrange(cur)] + list(range(cur, cur + size - 1)))
        cur += size - 1
    elif perturb == "p_only":
        y = cur
        edges.append((rng.randrange(cur), y))
        cur += 1
        for _ in range(2):
            ring([y, cur, cur + 1])
            ring([cur, cur + 2, cur + 3])
            ring([cur + 1, cur + 4, cur + 5])
            cur += 6
    elif perturb is not None:
        raise ValueError(f"unknown perturbation {perturb!r}")
    return build_graph(cur, edges), factor


def planted_block_graph(classes: int, r: int, seed: int):
    """A connected block graph with a planted K_r-factor of at least `classes` classes.

    Returns (g, factor).  The first block is a clique of one to three
    classes.  Each step picks an existing vertex and hangs a new clique
    block off it, whose fresh vertices are one or two whole classes, or
    one to four vertices that each get a class of their own in a pendant
    block (r vertices: the vertex and r - 1 fresh ones).
    """
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    factor: list[tuple[int, ...]] = []

    def clique(verts):
        edges.extend(combinations(verts, 2))

    def fresh_classes(start, count):
        factor.extend(tuple(range(start + i * r, start + (i + 1) * r)) for i in range(count))
        return list(range(start, start + count * r))

    cur = rng.randint(1, 3) * r
    clique(fresh_classes(0, cur // r))
    while len(factor) < classes:
        anchor = rng.randrange(cur)
        if rng.random() < 0.5:
            block = fresh_classes(cur, rng.randint(1, 2))
            cur += len(block)
        else:
            block = list(range(cur, cur + rng.randint(1, 4)))
            cur += len(block)
            for v in block:
                factor.append((v, *range(cur, cur + r - 1)))
                clique(factor[-1])
                cur += r - 1
        clique([anchor] + block)
    return build_graph(cur, edges), factor


def planted_matching_cactus(pairs: int, seed: int):
    """A connected cactus with a planted perfect matching of at least `pairs` pairs.

    Returns (g, matching).  It starts from one matched edge.  Each step
    picks an existing vertex and either bridges it to a new matched pair,
    or runs a cycle through it and an even number of new vertices; each
    new cycle vertex is matched to the next one along the cycle or to a
    new pendant vertex.
    """
    rng = random.Random(seed)
    edges = [(0, 1)]
    matching = [(0, 1)]
    cur = 2
    while len(matching) < pairs:
        anchor = rng.randrange(cur)
        if rng.random() < 0.4:
            edges += [(anchor, cur + rng.randrange(2)), (cur, cur + 1)]
            matching.append((cur, cur + 1))
            cur += 2
            continue
        ring = [anchor] + list(range(cur, cur + 2 * rng.randint(1, 3)))
        edges += [(ring[i], ring[i - 1]) for i in range(len(ring))]
        cur = ring[-1] + 1
        todo = ring[1:]
        while todo:
            v = todo.pop(0)
            if todo and rng.random() < 0.6:
                matching.append((v, todo.pop(0)))
            else:
                edges.append((v, cur))
                matching.append((v, cur))
                cur += 1
    return build_graph(cur, edges), matching


@pytest.fixture(scope="session")
def bowtie():
    return build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])


@pytest.fixture(scope="session")
def two_triangles_bridge():
    return build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])


@pytest.fixture(scope="session")
def sunlet_cactus():
    """C4 with a private triangle on each cycle vertex: one P-cycle, four M."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    for i in range(4):
        a, b = 4 + 2 * i, 5 + 2 * i
        edges += [(i, a), (i, b), (a, b)]
    return build_graph(12, edges)
