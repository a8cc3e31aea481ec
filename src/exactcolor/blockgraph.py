"""Exact (k, d)-coloring of block graphs, and of cacti at d = 1, 2, in linear time.

Each class of an exact (k, d)-coloring induces connected d-regular pieces,
each inside one block here: copies of K_{d+1} in a block graph, edges or
whole cycles in a cactus.  So factor_chi, the one body of blockgraph_chi
and the cactus solvers, finds such a factor (a partition of V into
classes) and properly colors its quotient, one vertex per class.

graphs.block_factor finds the factor in one leaves-first pass over the
block sweep (graphs.block_cut_tree); its moves are forced, so it finds one
whenever one exists.  graphs.color_factor colors the classes off the same
sweep, root first, without building the quotient.  In a block graph the
classes touching one block are pairwise adjacent in the quotient, and
every quotient edge joins two classes touching one block, so chi of the
quotient is the most classes touching one block, and first fit block by
block uses no more (cacti: see the cactus module).  Tests that contract
every factor of small block graphs guard that chi of the quotient does
not depend on the factor found.
"""

from __future__ import annotations

from .coloring import Coloring, INFEASIBLE, SolveOutcome
from .errors import BadParameterError, NotABlockGraphError
from .graphs import Graph, block_factor, color_factor


def _guard_block_graph(g: Graph) -> None:
    """NotABlockGraphError unless g is a block graph."""
    if not g.bct.is_block_graph:
        raise NotABlockGraphError("input is not a block graph")


def clique_factor(g: Graph, r: int) -> list[tuple[int, ...]] | None:
    """Partition V into classes of exactly r vertices each inducing K_r, or None.

    The classes come sorted; graphs.block_factor finds them.
    """
    if r < 2:
        raise BadParameterError("clique factor needs r >= 2")
    _guard_block_graph(g)
    classes = block_factor(g.n, g.bct.sweep, r)
    return None if classes is None else sorted(classes)


def factor_chi(g: Graph, d: int) -> SolveOutcome:
    """chi_d of a block graph or a cactus (the caller's guard), with witness: infeasible
    without a factor, else chi of its quotient.  A cactus's rings are read as cycles,
    which on a block graph finds the classes that reading them as cliques would."""
    cyclic = g.bct.is_cactus
    factor = block_factor(g.n, g.bct.sweep, d + 1, cyclic)
    if factor is None:
        return INFEASIBLE
    k, color = color_factor(g.n, g.bct.sweep, factor, cyclic)
    return SolveOutcome.finite(k, Coloring(k, tuple(color)))


def blockgraph_chi(g: Graph, d: int) -> SolveOutcome:
    """Exact d-defective chromatic number of a block graph, with witness.

    Infeasible when no K_{d+1}-factor exists, else chi of its quotient.
    """
    if d < 1:
        raise BadParameterError("blockgraph solver covers d >= 1")
    _guard_block_graph(g)
    return factor_chi(g, d)
