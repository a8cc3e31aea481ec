"""Generators for the graph families used throughout the package.

Canonical vertex numbering:

* ``cycle(n)``    -- vertices 0..n-1 in cyclic order.
* ``path(n)``     -- vertices 0..n-1 along the path.
* ``complete(n)`` -- all pairs.
* ``wheel(n)``    -- rim 0..n-2 in cyclic order, hub n-1.
* ``star(n)``     -- center 0, leaves 1..n-1.
* ``petersen()``  -- outer 5-cycle 0..4, inner pentagram 5..9, spokes i-(i+5).
* products of K2 with K_m -- vertex (i, j) maps to index i*m + j, where i
  indexes the K2 copy and j the K_m vertex.
* ``tightness_gadget()`` -- triangle 0,1,2 with pendants 3,4,5 attached to
  0,1,2 respectively (the 6-vertex K3-with-pendants graph).

Random families grow a block structure one block at a time from a seeded
``random.Random``, so identical parameters always produce identical graphs.
"""

from __future__ import annotations

import random

from .errors import BadParameterError
from .graphs import Graph, build_graph


def cycle(n: int) -> Graph:
    if n < 3:
        raise BadParameterError("cycle needs n >= 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise BadParameterError("path needs n >= 1")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    if n < 1:
        raise BadParameterError("complete needs n >= 1")
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def wheel(n: int) -> Graph:
    if n < 4:
        raise BadParameterError("wheel needs n >= 4")
    rim = [(i, (i + 1) % (n - 1)) for i in range(n - 1)]
    spokes = [(i, n - 1) for i in range(n - 1)]
    return build_graph(n, rim + spokes)


def star(n: int) -> Graph:
    if n < 1:
        raise BadParameterError("star needs n >= 1")
    return build_graph(n, [(0, i) for i in range(1, n)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return build_graph(10, outer + inner + spokes)


def cartesian_k2_complete(m: int) -> Graph:
    """K2 box K_m: two K_m copies plus a perfect matching between them."""
    if m < 1:
        raise BadParameterError("cartesian_k2_complete needs m >= 1")
    edges = []
    for i in (0, 1):
        edges += [(i * m + a, i * m + b) for a in range(m) for b in range(a + 1, m)]
    edges += [(j, m + j) for j in range(m)]
    return build_graph(2 * m, edges)


def categorical_k2_complete(m: int) -> Graph:
    """K2 x K_m: complete bipartite K_{m,m} minus a perfect matching."""
    if m < 2:
        raise BadParameterError("categorical_k2_complete needs m >= 2")
    edges = [(a, m + b) for a in range(m) for b in range(m) if a != b]
    return build_graph(2 * m, edges)


def tightness_gadget() -> Graph:
    """Triangle with a pendant vertex on each corner; unique perfect matching."""
    return build_graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])


def octahedron() -> Graph:
    """K_{2,2,2}: the 4-regular planar solid on 6 vertices."""
    non_edges = {(0, 1), (2, 3), (4, 5)}
    edges = [
        (i, j) for i in range(6) for j in range(i + 1, 6) if (i, j) not in non_edges
    ]
    return build_graph(6, edges)


def icosahedron() -> Graph:
    """The 5-regular planar solid on 12 vertices (pentagonal antiprism + 2 apexes)."""
    edges = [(0, i) for i in range(1, 6)]
    edges += [(i, i % 5 + 1) for i in range(1, 6)]            # upper ring 1..5
    edges += [(6 + i, 6 + (i + 1) % 5) for i in range(5)]     # lower ring 6..10
    edges += [(11, 6 + i) for i in range(5)]
    for i in range(5):
        edges += [(1 + i, 6 + i), (1 + i, 6 + (i + 1) % 5)]
    return build_graph(12, edges)


# ---------------------------------------------------------------------------
# Seeded random families for the test corpus
# ---------------------------------------------------------------------------

def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with a fixed seed."""
    if not 0 <= p <= 1:  # also rejects NaN
        raise BadParameterError("random_graph needs 0 <= p <= 1")
    rng = random.Random(seed)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def random_cactus(n: int, seed: int, style: str = "mixed") -> Graph:
    """Connected random cactus on exactly n vertices.

    Styles control how new blocks attach:

    * ``"bridged"``: an initial cycle, then cycles hung off bridge edges, so
      every vertex lies on a cycle with private vertices (instances tend to
      admit exact (2,2)-colorings with all cycles monochromatic).
    * ``"petaled"``: like bridged but also grows even cores whose vertices
      all carry private triangles, forcing polychromatic cycle labels.
    * ``"shared"``: new blocks share a vertex with an existing one (often
      rejected: touching forced-monochromatic cycles).
    * ``"mixed"``: a seeded blend, including pendant edges and uncovered
      vertices (infeasible cases included on purpose).
    """
    if n < 1:
        raise BadParameterError("random_cactus needs n >= 1")
    if style not in ("mixed", "bridged", "shared", "petaled"):
        raise BadParameterError(f"unknown cactus style {style!r}")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []

    def ring_edges(ring: list[int]) -> list[tuple[int, int]]:
        return [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]

    if style in ("bridged", "petaled"):
        if n < 3:
            return build_graph(n, [(i, i + 1) for i in range(n - 1)])
        # initial cycle; keep the leftover in {0} or >= 3 so a cycle always fits
        first = n if n <= 6 else rng.choice([x for x in range(3, 7) if n - x >= 3])
        edges += ring_edges(list(range(first)))
        cur = first
        while cur < n:
            remaining = n - cur  # always 0 or >= 3 here
            anchor = rng.randrange(cur)
            if style == "petaled" and (remaining == 9 or remaining >= 12) and rng.random() < 0.7:
                # even core through fresh vertices, a private triangle on each
                core = [anchor, cur, cur + 1, cur + 2]
                edges += ring_edges(core)
                base = cur + 3
                for hub in (cur, cur + 1, cur + 2):
                    edges += [(hub, base), (hub, base + 1), (base, base + 1)]
                    base += 2
                cur += 9
            else:
                length = remaining if remaining <= 6 else rng.randint(3, min(6, remaining - 3))
                edges.append((anchor, cur))
                edges += ring_edges(list(range(cur, cur + length)))
                cur += length
        return build_graph(n, edges)

    cur = 1
    while cur < n:
        remaining = n - cur
        anchor = rng.randrange(cur)
        if style == "shared":
            kind = "shared_cycle" if remaining >= 2 and rng.random() < 0.85 else "pendant"
        else:
            r = rng.random()
            if r < 0.35 and remaining >= 4:
                kind = "bridged_cycle"
            elif r < 0.75 and remaining >= 2:
                kind = "shared_cycle"
            else:
                kind = "pendant"
        if kind == "bridged_cycle":
            length = rng.randint(3, min(6, remaining - 1))
            edges.append((anchor, cur))
            edges += ring_edges(list(range(cur, cur + length)))
            cur += length
        elif kind == "shared_cycle":
            length = rng.randint(3, min(6, remaining + 1))
            edges += ring_edges([anchor] + list(range(cur, cur + length - 1)))
            cur += length - 1
        else:
            edges.append((anchor, cur))
            cur += 1
    return build_graph(n, edges)


def random_block_graph(n: int, seed: int) -> Graph:
    """Connected random block graph on exactly n vertices (tree of cliques)."""
    if n < 1:
        raise BadParameterError("random_block_graph needs n >= 1")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    cur = 1
    while cur < n:
        remaining = n - cur
        anchor = rng.randrange(cur)
        size = rng.randint(2, max(2, min(4, remaining + 1)))
        block = [anchor] + [cur + i for i in range(size - 1)]
        cur += size - 1
        edges += [
            (block[a], block[b]) for a in range(size) for b in range(a + 1, size)
        ]
    return build_graph(n, edges)


# every generator by name, with the parameters gen_family takes
_FAMILIES = {
    "cycle": (cycle, ("n",)),
    "path": (path, ("n",)),
    "complete": (complete, ("n",)),
    "wheel": (wheel, ("n",)),
    "star": (star, ("n",)),
    "petersen": (petersen, ()),
    "cartesian_k2_complete": (cartesian_k2_complete, ("m",)),
    "categorical_k2_complete": (categorical_k2_complete, ("m",)),
    "tightness_gadget": (tightness_gadget, ()),
    "octahedron": (octahedron, ()),
    "icosahedron": (icosahedron, ()),
    "random_graph": (random_graph, ("n", "p", "seed")),
    "random_cactus": (random_cactus, ("n", "seed", "style")),
    "random_block_graph": (random_block_graph, ("n", "seed")),
}


def family_names() -> list[str]:
    return sorted(_FAMILIES)


def family_params(name: str) -> tuple[str, ...]:
    """The parameters gen_family takes for a family; BadParameterError for an unknown name."""
    key = name.replace("-", "_")
    if key not in _FAMILIES:
        raise BadParameterError(f"unknown family {name!r}; known: {', '.join(family_names())}")
    return _FAMILIES[key][1]


def gen_family(name: str, **params) -> Graph:
    """Build a named family graph, e.g. gen_family("cycle", n=8).

    Unknown names and missing/extra parameters raise BadParameterError.
    """
    wanted = family_params(name)
    if set(params) != set(wanted):
        raise BadParameterError(f"family {name!r} takes parameters {wanted}, got {tuple(params)}")
    return _FAMILIES[name.replace("-", "_")][0](**params)
