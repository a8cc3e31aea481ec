"""Exact (k, 2)-coloring of cactus graphs in polynomial time.

Every color class of an exact (k, 2)-coloring induces disjoint cycles, and
in a cactus all cycles are blocks.  So the monochromatic (M) cycle blocks
form a cycle factor, every other cycle is polychromatic (P), and the solver,
blockgraph.factor_chi, runs on the leaves-first block sweep that the
depth-first search of graphs.block_cut_tree records as it closes each block:

* preprocess: check that every block is an edge or a cycle; the rings of
  three or more vertices are the cycles, in cyclic order;
* label: graphs.block_factor at r = 3 takes the rings in sweep order,
  leaves first.  A ring with a free (still untaken) non-entry vertex must
  be M and takes all its vertices; every other cycle is P.  This forces
  the one cycle factor or shows there is none;
* extract: each M cycle is one class, and graphs.color_factor colors the
  classes off the same sweep, root first.  An M ring's vertices share its
  entry's class, and two cycles of a cactus share at most one vertex, so
  a P ring or a bridge meets a new class at each non-entry vertex: the
  bridge end takes the smallest color its entry lacks, and the P ring
  alternates first fit, its last vertex also avoiding the entry's color.

The extraction uses the fewest colors: 1 when every component is one
cycle, else 2 unless some P cycle is odd, which needs a third color, and
three always suffice.  With two colors a P cycle must alternate, so an
odd one rules k = 2 out; without a cycle factor no number of colors works.

For defect 1 the value is min over perfect matchings M of chi(G/M), which
lies in {1, 2, 3} for cacti.  graphs.block_factor runs the same sweep
and finds one perfect matching in linear time or shows there is none, and
every perfect matching of a cactus gives the same answer, so no
enumeration is needed.  graphs.color_factor colors the pairs off the
sweep without building G/M.  Each edge of G/M lies in the image of one
block, a cycle's image is a cycle of its runs of one pair, and each run
takes the smallest color its neighbors there lack: two colors unless an
image is an odd cycle of three or more runs, which needs three.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .blockgraph import factor_chi
from .coloring import Coloring, SolveOutcome
from .errors import IncompleteLabelingError, NotACactusError
from .graphs import Graph, block_factor, color_factor

M = "M"
P = "P"


class NoReason(Enum):
    """Machine-readable causes for rejecting an exact (k, 2)-coloring."""

    UNCOVERED_VERTEX = "uncovered_vertex"            # some vertex lies on no cycle
    TWO_SIMPLICIAL_CYCLES_TOUCH = "two_simplicial_cycles_touch"
    ALL_P_CLIQUE = "all_p_clique"                    # some vertex sees no M cycle
    ADJACENT_M = "adjacent_m"                        # a forced M cycle touches another M cycle


class CactusAux:
    """Block structure of a cactus, read off its block-cut tree (Graph.bct).

    Every solver here reads the tree's leaves-first sweep, g.bct.sweep,
    whose rings are roots (1 vertex), bridges (2) and cycles (3 or more,
    in cyclic order); cycles lists the cycles in sweep order.  The rest
    is built on first use: cliques[j] lists the cycles containing vertex j,
    and has_w[i] says cycle i contains a cycle-simplicial vertex (one lying
    on no other cycle), which only a rejection's reason needs.
    """

    def __init__(self, g: Graph):
        self.g = g

    @cached_property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        return tuple(ring for ring in self.g.bct.sweep if len(ring) > 2)

    @cached_property
    def cliques(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.g.n)]
        for i, cyc in enumerate(self.cycles):
            for v in cyc:
                out[v].append(i)
        return tuple(map(tuple, out))

    @cached_property
    def has_w(self) -> tuple[bool, ...]:
        return tuple(any(len(self.cliques[v]) == 1 for v in cyc) for cyc in self.cycles)


class LabelResult(NamedTuple):
    """Outcome of the labeling pass: complete labels, or a rejection reason."""

    labels: tuple[str, ...] | None
    reason: NoReason | None = None

    @property
    def ok(self) -> bool:
        return self.labels is not None


def cactus_preprocess(g: Graph) -> CactusAux:
    """The block structure of a cactus; NotACactusError for any other graph."""
    if not g.bct.is_cactus:
        raise NotACactusError("input is not a cactus")
    return CactusAux(g)


def cactus_label(aux: CactusAux) -> LabelResult:
    """Assign M/P to every cycle or reject with a reason.

    The M cycles are the classes of graphs.block_factor at r = 3, which
    forces the cycle factor.  Without one, the ring the pass stopped at is
    a root or a bridge end that no M cycle took, or a cycle partly taken.
    """
    sweep = aux.g.bct.sweep
    unread = iter(sweep)
    factor = block_factor(aux.g.n, unread, 3, cyclic=True)
    if factor is None:  # the pass stopped at the ring just before the unread ones
        ring = sweep[-1 - sum(1 for _ in unread)]
        found = NoReason.ALL_P_CLIQUE if len(ring) < 3 else NoReason.ADJACENT_M
        return LabelResult(None, _reason(aux, found))
    m_cycles = set(factor)
    return LabelResult(tuple(M if cyc in m_cycles else P for cyc in aux.cycles))


def _reason(aux: CactusAux, found: NoReason) -> NoReason:
    """Why there is no cycle factor: a cause seen without the pass, else what it found."""
    if not all(aux.cliques):
        return NoReason.UNCOVERED_VERTEX
    if any(sum(aux.has_w[i] for i in c) > 1 for c in aux.cliques):
        return NoReason.TWO_SIMPLICIAL_CYCLES_TOUCH
    return found


def cactus_extract_coloring(aux: CactusAux, labeling: LabelResult) -> Coloring:
    """Turn a complete M/P labeling of aux.g into an exact (k, 2)-coloring with the fewest colors.

    Each M cycle is one class, and graphs.color_factor colors the classes
    properly off the block sweep.  A rejected labeling raises
    IncompleteLabelingError.
    """
    if not labeling.ok:
        raise IncompleteLabelingError("labeling is not complete")
    classes = [cyc for lab, cyc in zip(labeling.labels, aux.cycles) if lab == M]
    k, color = color_factor(aux.g.n, aux.g.bct.sweep, classes, cyclic=True)
    return Coloring(k, tuple(color))


def cactus_chi2(g: Graph) -> SolveOutcome:
    """Exact 2-defective chromatic number of a cactus, with witness.

    Infinite without a cycle factor, which no number of colors mends;
    otherwise the extraction's color count: 1, 2 or 3 (0 on no vertices).
    """
    cactus_preprocess(g)
    return factor_chi(g, 2)


def cactus_chi1(g: Graph) -> SolveOutcome:
    """Exact 1-defective chromatic number of a cactus, from one perfect matching.

    1 when g is 1-regular; infinite without a perfect matching M; else
    chi(G/M), 2 or 3.  Any M gives the same answer: a vertex of a cycle C is
    matched inside C exactly when the pieces hanging off it have even
    order, so the image of C in G/M has the same length for every M.
    """
    cactus_preprocess(g)
    return factor_chi(g, 1)
