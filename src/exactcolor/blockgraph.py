"""Exact (k, d)-coloring of block graphs in near-linear time.

In a block graph every color class of an exact (k, d)-coloring induces
vertex-disjoint copies of K_{d+1}: any d-regular connected piece is a clique
here, and cliques live inside single blocks.  So the solver finds a
K_{d+1}-factor (a partition of V into (d+1)-cliques), contracts it, and
properly colors the quotient, which is again a block graph and therefore
chordal.

The factor is found by graphs.block_factor, the one leaves-first pass that
the cactus and tree routes share, over the block sweep the depth-first
search of graphs.block_cut_tree records as it closes each block; its moves
are forced, so it finds a factor whenever one exists.  Whether chi of the
quotient is independent of which factor is found is guarded by tests that
contract every factor of small block graphs.
"""

from __future__ import annotations

from .chromatic import chromatic_number
from .coloring import Coloring, INFEASIBLE, SolveOutcome, lift_coloring
from .errors import BadParameterError, NotABlockGraphError
from .graphs import (
    BlockCutTree,
    Graph,
    block_cut_tree,
    block_factor,
    contract_partition,
)


def _guard_block_graph(g: Graph, bct: BlockCutTree | None = None) -> BlockCutTree:
    bct = bct or block_cut_tree(g)
    if not bct.is_block_graph:
        raise NotABlockGraphError("input is not a block graph")
    return bct


def clique_factor(
    g: Graph, r: int, bct: BlockCutTree | None = None
) -> list[tuple[int, ...]] | None:
    """Partition V into classes of exactly r vertices each inducing K_r, or None.

    The classes come sorted; graphs.block_factor finds them.
    """
    if r < 2:
        raise BadParameterError("clique factor needs r >= 2")
    bct = _guard_block_graph(g, bct)
    classes = block_factor(g.n, bct.sweep, r)
    return None if classes is None else sorted(classes)


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
