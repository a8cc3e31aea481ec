"""Exact (k, d)-coloring of block graphs in linear time.

In a block graph every color class of an exact (k, d)-coloring induces
vertex-disjoint copies of K_{d+1}: any d-regular connected piece is a clique
here, and cliques live inside single blocks.  So the solver finds a
K_{d+1}-factor (a partition of V into (d+1)-cliques) and properly colors
its quotient, one vertex per class.

graphs.block_factor finds the factor in one leaves-first pass over the
block sweep (graphs.block_cut_tree); its moves are forced, so it finds one
whenever one exists.  graphs.color_factor colors the classes off the same
sweep, root first, without building the quotient.  The classes touching
one block are pairwise adjacent in the quotient, and every quotient edge
joins two classes touching one block, so chi of the quotient is the most
classes touching one block, and first fit block by block uses no more.
Tests that contract every factor of small block graphs guard that chi of
the quotient does not depend on the factor found.
"""

from __future__ import annotations

from .coloring import Coloring, INFEASIBLE, SolveOutcome
from .errors import BadParameterError, NotABlockGraphError
from .graphs import Graph, block_factor, color_factor


def _guard_block_graph(g: Graph) -> tuple[tuple[int | None, tuple[int, ...]], ...]:
    """g's block sweep (Graph.bct); NotABlockGraphError unless g is a block graph."""
    if not g.bct.is_block_graph:
        raise NotABlockGraphError("input is not a block graph")
    return g.bct.sweep


def clique_factor(g: Graph, r: int) -> list[tuple[int, ...]] | None:
    """Partition V into classes of exactly r vertices each inducing K_r, or None.

    The classes come sorted; graphs.block_factor finds them.
    """
    if r < 2:
        raise BadParameterError("clique factor needs r >= 2")
    classes = block_factor(g.n, _guard_block_graph(g), r)
    return None if classes is None else sorted(classes)


def blockgraph_chi(g: Graph, d: int) -> SolveOutcome:
    """Exact d-defective chromatic number of a block graph, with witness.

    Infeasible when no K_{d+1}-factor exists, else chi of its quotient.
    """
    if d < 1:
        raise BadParameterError("blockgraph solver covers d >= 1")
    sweep = _guard_block_graph(g)
    factor = block_factor(g.n, sweep, d + 1)
    if factor is None:
        return INFEASIBLE
    k, color = color_factor(g.n, sweep, factor)
    return SolveOutcome.finite(k, Coloring(k, tuple(color)))
