"""Exact (k, 2)-coloring of cactus graphs in polynomial time.

Every color class of an exact (k, 2)-coloring induces disjoint cycles, and
in a cactus all cycles are blocks.  So the solver marks each cycle block as
monochromatic (M) or polychromatic (P) on an auxiliary structure and then
paints the graph by one sweep per component:

* preprocess: collect cycle blocks, then bridges, per-vertex cycle cliques,
  and which cycles own a cycle-simplicial vertex (a vertex lying in exactly
  one cycle; such a cycle is forced monochromatic);
* label: seed every simplicial-owning cycle with M, then propagate through
  the per-vertex cliques until all cycles are labeled or a local guard
  rejects;
* extract: run the breadth-first block sweep (graphs.block_sweep) from each
  component's smallest vertex, painting M-cycles with one color, P-cycles
  properly, and bridges with a differing color.

With two colors a P-cycle must alternate, so odd P-cycles reject; with
three or more colors that guard is dropped.  The resulting labeling is
unique for every cactus that admits a coloring, independent of the scan
order of the propagation loop.

For defect 1 the value is min over perfect matchings M of chi(G/M), which
lies in {1, 2, 3} for cacti.  The same block sweep, run leaves first (as
the block-graph factor search also runs it), finds one perfect matching in
linear time or shows there is none, and every perfect matching of a cactus
gives the same answer, so no enumeration is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .chromatic import greedy_coloring, smallest_last_order
from .coloring import Coloring, INFEASIBLE, SolveOutcome, lift_coloring, monochromatic
from .errors import BadParameterError, IncompleteLabelingError, NotACactusError
from .graphs import (
    BlockCutTree,
    BlockKind,
    Graph,
    block_cut_tree,
    block_sweep,
    contract_partition,
    is_bipartite,
    is_d_regular,
)

M = "M"
P = "P"


class NoReason(Enum):
    """Machine-readable causes for rejecting an exact (k, 2)-coloring."""

    UNCOVERED_VERTEX = "uncovered_vertex"            # some vertex lies on no cycle
    TWO_SIMPLICIAL_CYCLES_TOUCH = "two_simplicial_cycles_touch"
    ODD_P_CYCLE = "odd_p_cycle"                      # k = 2 only
    ALL_P_CLIQUE = "all_p_clique"                    # some vertex sees no M cycle
    ADJACENT_M = "adjacent_m"                        # propagation forced two touching M cycles


@dataclass
class CactusAux:
    """Cycle structure of a cactus.

    cycles[i] lists cycle i's vertices in cyclic order; cycles are indexed
    by ascending smallest contained vertex.  cliques[j] lists the cycles
    containing vertex j (cycles sharing a vertex are pairwise "adjacent", so
    each such list plays the role of a clique in the auxiliary graph).
    has_w[i] says cycle i contains a cycle-simplicial vertex.  blocks lists
    the cycles and then the bridges (u, v), so cycle i is block i and every
    block index from len(cycles) on is a bridge; blocks_of[j] lists the
    blocks containing vertex j, for the block sweep.
    """

    g: Graph
    cycles: tuple[tuple[int, ...], ...]
    cliques: tuple[tuple[int, ...], ...]
    has_w: tuple[bool, ...]
    blocks: tuple[tuple[int, ...], ...]
    blocks_of: tuple[tuple[int, ...], ...]


@dataclass
class LabelResult:
    """Outcome of the labeling pass: complete labels, or a rejection reason."""

    labels: tuple[str, ...] | None
    reason: NoReason | None = None

    @property
    def ok(self) -> bool:
        return self.labels is not None


def _guard_cactus(g: Graph, bct: BlockCutTree | None = None) -> BlockCutTree:
    bct = bct or block_cut_tree(g)
    if not bct.is_cactus():
        raise NotACactusError("input is not a cactus")
    return bct


def cactus_preprocess(g: Graph, bct: BlockCutTree | None = None) -> CactusAux:
    """Build the auxiliary cycle structure (cycles, cliques, simplicial flags, blocks)."""
    bct = _guard_cactus(g, bct)
    kinds = bct.kinds
    cycles = tuple(v for v, kind in zip(bct.blocks, kinds) if kind == BlockKind.CYCLE)
    blocks = cycles + tuple(v for v, kind in zip(bct.blocks, kinds) if kind != BlockKind.CYCLE)

    blocks_of: list[list[int]] = [[] for _ in range(g.n)]
    for i, verts in enumerate(blocks):
        for v in verts:
            blocks_of[v].append(i)
    r = len(cycles)
    cliques = tuple(tuple(i for i in b if i < r) for b in blocks_of)  # the cycles among the blocks

    return CactusAux(
        g=g,
        cycles=cycles,
        cliques=cliques,
        has_w=tuple(any(len(cliques[v]) == 1 for v in cyc) for cyc in cycles),
        blocks=blocks,
        blocks_of=tuple(tuple(b) for b in blocks_of),
    )


def cactus_label(aux: CactusAux, k: int = 2, scan_order=None) -> LabelResult:
    """Assign M/P to every cycle or reject with a reason.

    k = 2 runs the strict variant (odd cycles may not be P); any k >= 3 runs
    the relaxed variant without that check.  scan_order optionally permutes
    the vertex order of the propagation loop; for accepted instances the
    final labeling does not depend on it.
    """
    if k < 2:
        raise BadParameterError("labeling applies to k >= 2")
    n = aux.g.n
    r = len(aux.cycles)
    order = list(range(n)) if scan_order is None else list(scan_order)

    for j in range(n):
        if not aux.cliques[j]:
            return LabelResult(None, NoReason.UNCOVERED_VERTEX)

    labels: list[str | None] = [None] * r
    m_count = [0] * n                      # M-labeled cycles containing vertex j
    unlabeled_in = [len(aux.cliques[j]) for j in range(n)]
    all_p_somewhere = False
    remaining = r

    def apply(i: int, lab: str):
        nonlocal remaining, all_p_somewhere
        labels[i] = lab
        remaining -= 1
        for u in aux.cycles[i]:
            unlabeled_in[u] -= 1
            if lab == M:
                m_count[u] += 1
            elif unlabeled_in[u] == 0 and m_count[u] == 0:
                all_p_somewhere = True

    def m_conflict(i: int) -> bool:
        # an M neighbor exists iff some vertex of cycle i already sees an M cycle
        return any(m_count[u] >= 1 for u in aux.cycles[i])

    # seed: every cycle owning a cycle-simplicial vertex must be monochromatic
    for i in range(r):
        if aux.has_w[i]:
            if m_conflict(i):
                return LabelResult(None, NoReason.TWO_SIMPLICIAL_CYCLES_TOUCH)
            apply(i, M)

    # propagate through the per-vertex cliques until everything is labeled
    while remaining > 0:
        progressed = False
        for j in order:
            clique = aux.cliques[j]
            if unlabeled_in[j] >= 1 and m_count[j] >= 1:
                target = min(i for i in clique if labels[i] is None)
                apply(target, P)
                if k == 2 and len(aux.cycles[target]) % 2 == 1:
                    return LabelResult(None, NoReason.ODD_P_CYCLE)
                if all_p_somewhere:
                    return LabelResult(None, NoReason.ALL_P_CLIQUE)
                progressed = True
                continue
            if unlabeled_in[j] == 1 and m_count[j] == 0:
                target = next(i for i in clique if labels[i] is None)
                if m_conflict(target):
                    return LabelResult(None, NoReason.ADJACENT_M)
                apply(target, M)
                progressed = True
                continue
        if not progressed:
            # unreachable on a genuine cactus: every traversal labels a cycle
            raise RuntimeError("labeling stalled; input violates cactus structure")

    return LabelResult(tuple(labels))


def cactus_extract_coloring(
    g: Graph, aux: CactusAux, labeling: LabelResult | tuple[str, ...], k: int = 2
) -> Coloring:
    """Turn a complete M/P labeling into an exact (k, 2)-coloring.

    The rings of the block sweep are painted in order, roots with color 0.
    The entry vertex fixes the ring: M-cycles copy its color, P-cycles and
    bridges get an alternating (k = 2) or smallest-legal proper coloring.
    """
    labels = labeling.labels if isinstance(labeling, LabelResult) else tuple(labeling)
    if labels is None or any(lab is None for lab in labels):
        raise IncompleteLabelingError("labeling is not complete")
    if k < 2:
        raise BadParameterError("extraction needs k >= 2")

    color = [-1] * g.n

    def smallest_except(*banned: int) -> int:
        c = 0
        while c in banned:
            c += 1
        if c >= k:
            raise IncompleteLabelingError("labeling admits no coloring with this k")
        return c

    for i, ring in block_sweep(g.n, aux.blocks, aux.blocks_of):
        u = ring[0]
        if i is None:
            color[u] = 0
        elif i < len(aux.cycles) and labels[i] == M:  # later indices are bridges
            for w in ring[1:]:
                color[w] = color[u]
        else:
            prev = color[u]
            for w in ring[1:]:  # the last vertex also differs from the entry
                prev = color[w] = smallest_except(prev, color[u] if w == ring[-1] else prev)

    return Coloring(k, tuple(color))


def cactus_perfect_matching(aux: CactusAux) -> list[tuple[int, int]] | None:
    """The pairs of a perfect matching of the cactus, or None if it has none.

    The rings of the block sweep are taken in reverse, leaves first.  A ring's
    free (still unmatched) non-entry vertices must be matched inside it, so
    it takes its entry vertex exactly when they are odd in number.  Its
    free vertices are then paired along the cycle, arc by arc between the
    others; an odd arc leaves no perfect matching.  Linear time.
    """
    matched = [False] * aux.g.n
    pairs = []
    for _, ring in reversed(list(block_sweep(aux.g.n, aux.blocks, aux.blocks_of))):
        free = [not matched[w] for w in ring]
        free[0] = sum(free[1:]) % 2 == 1   # the ring takes its entry vertex
        if free[0] and matched[ring[0]]:
            return None
        # start after a vertex that is not free (all free: at the entry vertex)
        start = free.index(False) + 1 if not all(free) else 0
        pending = None
        for j in range(start, start + len(ring)):
            j %= len(ring)
            if not free[j]:
                if pending is not None:
                    return None
            elif pending is None:
                pending = ring[j]
            else:
                pairs.append((pending, ring[j]))
                matched[pending] = matched[ring[j]] = True
                pending = None
    return pairs if all(matched) else None


def cactus_chi2(g: Graph, bct: BlockCutTree | None = None) -> SolveOutcome:
    """Exact 2-defective chromatic number of a cactus, with witness.

    1 for disjoint unions of cycles; 2 when the strict labeling accepts; 3
    when only the relaxed labeling accepts (three colors always suffice for
    an outerplanar graph when any solution exists); infinite otherwise.
    """
    if g.n == 0:
        return SolveOutcome.finite(0, Coloring(0, ()))
    if is_d_regular(g, 2):
        return SolveOutcome.finite(1, monochromatic(g.n))
    aux = cactus_preprocess(g, bct)
    strict = cactus_label(aux, k=2)
    if strict.ok:
        return SolveOutcome.finite(2, cactus_extract_coloring(g, aux, strict, k=2))
    relaxed = cactus_label(aux, k=3)
    if relaxed.ok:
        return SolveOutcome.finite(3, cactus_extract_coloring(g, aux, relaxed, k=3))
    return INFEASIBLE


def cactus_chi1(g: Graph, bct: BlockCutTree | None = None) -> SolveOutcome:
    """Exact 1-defective chromatic number of a cactus, from one perfect matching.

    1 when g is 1-regular; infinite without a perfect matching M; else 2 if
    G/M is bipartite and 3 if not (G/M is a cactus, so smallest-last first
    fit colors it with three).  Any M gives the same answer: a vertex of a
    cycle C is matched inside C exactly when the pieces hanging off it have
    even order, so the image of C in G/M has the same length for every M.
    """
    if g.n == 0:
        return SolveOutcome.finite(0, Coloring(0, ()))
    if is_d_regular(g, 1):
        return SolveOutcome.finite(1, monochromatic(g.n))
    pairs = cactus_perfect_matching(cactus_preprocess(g, bct))
    if pairs is None:
        return INFEASIBLE
    quotient = contract_partition(g, pairs)
    bip, side = is_bipartite(quotient)
    if bip:
        return SolveOutcome.finite(2, lift_coloring(g.n, pairs, side, 2))
    q_col = greedy_coloring(quotient, list(reversed(smallest_last_order(quotient))))
    return SolveOutcome.finite(3, lift_coloring(g.n, pairs, q_col, 3))
