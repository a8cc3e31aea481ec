"""The paper's exact values for structured families, with witness colorings.

Each finite answer comes with a witness coloring built the way the
corresponding existence argument builds it, so every closed form can be
re-checked by the exactness validator.  Values outside the proven parameter
ranges are not extrapolated: wheels only support d = 1 here and other
defects are left to the brute-force oracle.  The solver routes d-regular
graphs and wheels here; cycles and trees answer through the cactus route
and complete graphs through the block-graph route, and the tests check
those routes against chi_cycle, chi_tree and chi_complete.
"""

from __future__ import annotations

from .blockgraph import blockgraph_chi
from .chromatic import chromatic_number
from .coloring import Coloring, INFEASIBLE, SolveOutcome, monochromatic
from .errors import BadParameterError, NotATreeError
from .graphs import Graph, is_d_regular, is_tree


def chi_cycle(n: int, d: int) -> SolveOutcome:
    """Exact d-defective chromatic number of the cycle C_n.

    d = 1: 2 when 4 | n, 3 when n is even but not divisible by 4, infinite
    for odd n.  d = 2: 1 (monochromatic).  d > 2 is infeasible since cycle
    vertices have degree 2.
    """
    if n < 3:
        raise BadParameterError("cycle needs n >= 3")
    if d < 1:
        raise BadParameterError("chi_cycle covers d >= 1; use chromatic_number for d = 0")
    if d == 2:
        return SolveOutcome.finite(1, monochromatic(n))
    if d > 2:
        return INFEASIBLE
    if n % 2 == 1:
        return INFEASIBLE
    # pair consecutive vertices (2i, 2i+1); each pair is one matched edge
    pair_colors = [i % 2 for i in range(n // 2)]
    if n % 4 == 0:
        k = 2
    else:
        k = 3
        pair_colors[-1] = 2  # odd pair count: close the ring with a third color
    assign = tuple(pair_colors[v // 2] for v in range(n))
    return SolveOutcome.finite(k, Coloring(k, assign))


def chi_wheel(n: int, d: int) -> SolveOutcome:
    """Exact 1-defective chromatic number of the wheel W_n (rim 0..n-2, hub n-1).

    2 for n = 4, 3 for even n > 4, infinite for odd n.  Only d = 1 is
    supported; other defects on wheels go through the oracle.
    """
    if n < 4:
        raise BadParameterError("wheel needs n >= 4")
    if d != 1:
        raise BadParameterError("chi_wheel covers d = 1 only")
    if n % 2 == 1:
        return INFEASIBLE
    if n == 4:
        return SolveOutcome.finite(2, Coloring(2, (0, 0, 1, 1)))
    # the hub and rim vertex 0 share color 0; the rim path 1..n-2 splits into
    # consecutive pairs that alternate colors 1 and 2
    assign = (0,) + tuple(1 + ((i - 1) // 2) % 2 for i in range(1, n - 1)) + (0,)
    return SolveOutcome.finite(3, Coloring(3, assign))


def chi_tree(g: Graph, d: int) -> SolveOutcome:
    """Exact d-defective chromatic number of a tree, which is a block graph.

    d = 0 gives 2 (1 on one vertex), as chromatic_number colors any block
    graph.  Every d >= 1 is blockgraph_chi's: at d = 1 chi(T/M) for the
    unique perfect matching M (1 for K2, else 2), or infinite without one;
    at d >= 2 infinite, as the K_{d+1}-factor fails at a leaf edge.
    """
    if not is_tree(g):
        raise NotATreeError("input is not a tree")
    if d < 0:
        raise BadParameterError("defect must be nonnegative")
    if d == 0:
        return SolveOutcome.finite(*chromatic_number(g))
    return blockgraph_chi(g, d)


def chi_complete(n: int, d: int) -> SolveOutcome:
    """n / (d+1) when d + 1 divides n (consecutive blocks of d + 1), else infinite."""
    if n < 1:
        raise BadParameterError("complete graph needs n >= 1")
    if d < 0:
        raise BadParameterError("defect must be nonnegative")
    if n % (d + 1) != 0:
        return INFEASIBLE
    k = n // (d + 1)
    return SolveOutcome.finite(k, Coloring(k, tuple(v // (d + 1) for v in range(n))))


def chi_regular_trivial(g: Graph, d: int) -> SolveOutcome | None:
    """Finite(1) with the monochromatic witness when g is d-regular, else None."""
    if g.n > 0 and is_d_regular(g, d):
        return SolveOutcome.finite(1, monochromatic(g.n))
    return None
