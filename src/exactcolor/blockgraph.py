"""Exact (k, d)-coloring of block graphs in near-linear time.

In a block graph every color class of an exact (k, d)-coloring induces
vertex-disjoint copies of K_{d+1}: any d-regular connected piece is a clique
here, and cliques live inside single blocks.  So the solver finds a
K_{d+1}-factor (a partition of V into (d+1)-cliques), contracts it, and
properly colors the quotient, which is again a block graph and therefore
chordal.

The factor search eliminates leaf blocks of the block-cut tree inward.  For
a leaf block whose currently available non-cut vertices number t:

* t divisible by d+1: group them inside the block, pass the cut vertex on;
* t leaving remainder d: one group absorbs the cut vertex;
* anything else: no factor exists.

Both moves are forced (classes cannot straddle blocks), so the greedy
elimination is exact.  Whether chi of the quotient is independent of which
factor is found is guarded empirically by the brute-force equivalence test
suite rather than assumed.
"""

from __future__ import annotations

import heapq

from .chromatic import chromatic_number
from .coloring import Coloring, INFEASIBLE, SolveOutcome, lift_coloring
from .errors import BadParameterError, NotABlockGraphError
from .graphs import BlockCutTree, Graph, block_cut_tree, contract_partition


def _guard_block_graph(g: Graph, bct: BlockCutTree | None = None) -> BlockCutTree:
    bct = bct or block_cut_tree(g)
    if not bct.is_block_graph():
        raise NotABlockGraphError("input is not a block graph")
    return bct


def clique_factor(
    g: Graph, r: int, bct: BlockCutTree | None = None
) -> list[tuple[int, ...]] | None:
    """Partition V into classes of exactly r vertices each inducing K_r, or None.

    Classes are grouped from sorted vertex order inside each block and blocks
    are processed by ascending smallest vertex, so the returned factor is the
    lexicographically least one the elimination can produce.
    """
    if r < 2:
        raise BadParameterError("clique factor needs r >= 2")
    bct = _guard_block_graph(g, bct)
    if g.n == 0:
        return []

    nblocks = len(bct.blocks)
    block_of = bct.blocks_of_vertex(g.n)
    if any(not b for b in block_of):
        return None  # isolated vertex cannot join any K_r
    blocks_left = [len(b) for b in block_of]      # per vertex
    consumed = [False] * g.n
    # a block is ready when at most one of its vertices still lies in other blocks
    shared = [sum(1 for v in verts if blocks_left[v] >= 2) for verts in bct.blocks]
    done = [False] * nblocks
    ready = [(verts[0], i) for i, verts in enumerate(bct.blocks) if shared[i] <= 1]
    heapq.heapify(ready)

    classes: list[tuple[int, ...]] = []
    processed = 0
    while ready:
        _, i = heapq.heappop(ready)
        if done[i]:
            continue
        done[i] = True
        processed += 1
        verts = bct.blocks[i]
        cut = [v for v in verts if not consumed[v] and blocks_left[v] >= 2]
        avail = sorted(v for v in verts if not consumed[v] and blocks_left[v] == 1)
        rest = avail
        if len(avail) % r == 0:
            pass  # cut vertex, if any, is passed to its remaining blocks
        elif len(avail) % r == r - 1 and cut:
            c = cut[0]
            consumed[c] = True
            classes.append(tuple(sorted([c] + avail[:r - 1])))
            rest = avail[r - 1:]
        else:
            return None
        for a in range(0, len(rest), r):
            classes.append(tuple(rest[a:a + r]))
        for v in avail:
            consumed[v] = True
        # detach the block; neighbors may become ready
        for v in verts:
            blocks_left[v] -= 1
            if blocks_left[v] == 1:
                for j in block_of[v]:
                    if not done[j]:
                        shared[j] -= 1
                        if shared[j] <= 1:
                            heapq.heappush(ready, (bct.blocks[j][0], j))
    if processed != nblocks or not all(consumed):
        return None
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
    bct = _guard_block_graph(g, bct)
    if g.n == 0:
        return SolveOutcome.finite(0, Coloring(0, ()))
    factor = clique_factor(g, d + 1, bct)
    if factor is None:
        return INFEASIBLE
    quotient = contract_partition(g, factor)
    q_chi, q_col = chromatic_number(quotient)
    return SolveOutcome.finite(q_chi, lift_coloring(g.n, factor, q_col.assign, q_chi))
