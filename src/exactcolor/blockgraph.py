"""Exact (k, d)-coloring of block graphs in near-linear time.

In a block graph every color class of an exact (k, d)-coloring induces
vertex-disjoint copies of K_{d+1}: any d-regular connected piece is a clique
here, and cliques live inside single blocks.  So the solver finds a
K_{d+1}-factor (a partition of V into (d+1)-cliques), contracts it, and
properly colors the quotient, which is again a block graph and therefore
chordal.

The factor search runs the breadth-first block sweep of the block-cut tree
(graphs.block_sweep, shared with the cactus matching) in reverse, leaves
first.  Every vertex but a component root is a non-entry vertex of exactly
one ring, and the blocks hanging off it are done before that ring.  For a
ring whose free (still uncovered) non-entry vertices number t:

* t divisible by d+1: group them inside the block, leave the entry vertex;
* t leaving remainder d: one group takes the entry vertex, unless a
  sibling block has taken it already;
* anything else: no factor exists.

Both moves are forced (classes cannot straddle blocks), so the pass is
exact; a root still free at the end leaves no factor.  Whether chi of the
quotient is independent of which factor is found is guarded by tests that
contract every factor of small block graphs.
"""

from __future__ import annotations

from .chromatic import chromatic_number
from .coloring import Coloring, INFEASIBLE, SolveOutcome, lift_coloring
from .errors import BadParameterError, NotABlockGraphError
from .graphs import BlockCutTree, Graph, block_cut_tree, block_sweep, contract_partition


def _guard_block_graph(g: Graph, bct: BlockCutTree | None = None) -> BlockCutTree:
    bct = bct or block_cut_tree(g)
    if not bct.is_block_graph():
        raise NotABlockGraphError("input is not a block graph")
    return bct


def clique_factor(
    g: Graph, r: int, bct: BlockCutTree | None = None
) -> list[tuple[int, ...]] | None:
    """Partition V into classes of exactly r vertices each inducing K_r, or None.

    One leaves-first pass over the block sweep; each block groups the free
    vertices it must cover in sorted runs of r.  The classes come sorted.
    """
    if r < 2:
        raise BadParameterError("clique factor needs r >= 2")
    bct = _guard_block_graph(g, bct)
    taken = [False] * g.n
    classes: list[tuple[int, ...]] = []
    for i, ring in reversed(list(block_sweep(g.n, bct.blocks, bct.blocks_of_vertex(g.n)))):
        entry = ring[0]
        if i is None:
            if not taken[entry]:
                return None  # a root no block took, e.g. an isolated vertex
            continue
        free = [w for w in ring[1:] if not taken[w]]
        if len(free) % r == r - 1:
            if taken[entry]:
                return None  # a sibling block took the entry vertex
            free.append(entry)
        elif len(free) % r:
            return None
        free.sort()
        for a in range(0, len(free), r):
            classes.append(tuple(free[a:a + r]))
        for w in free:
            taken[w] = True
    return sorted(classes)


def blockgraph_solve(
    g: Graph, k: int, d: int, bct: BlockCutTree | None = None
) -> Coloring | None:
    """Decide exact (k, d)-colorability of a block graph; witness on yes."""
    outcome = blockgraph_chi(g, d, bct)
    if outcome.is_infeasible or outcome.chi > k:
        return None
    w = outcome.witness
    return Coloring(k, w.assign) if k != w.k else w


def blockgraph_chi(
    g: Graph, d: int, bct: BlockCutTree | None = None
) -> SolveOutcome:
    """Exact d-defective chromatic number of a block graph, with witness.

    Infeasible when no K_{d+1}-factor exists; otherwise chi of the
    contracted quotient (computed by the chordal fast path), lifted by
    giving every factor class its quotient color.
    """
    if d < 1:
        raise BadParameterError("blockgraph solver covers d >= 1")
    factor = clique_factor(g, d + 1, bct)
    if factor is None:
        return INFEASIBLE
    quotient = contract_partition(g, factor)
    q_chi, q_col = chromatic_number(quotient)
    return SolveOutcome.finite(q_chi, lift_coloring(g.n, factor, q_col.assign, q_chi))
