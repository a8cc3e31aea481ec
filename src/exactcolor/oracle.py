"""Ground-truth solvers for exact (k, d)-coloring on small graphs.

Two routes are provided on purpose; they share only the exact search,
which the first runs at d and the second at d = 0 on each quotient:

* ``brute_solve`` / ``brute_chi``: complete backtracking over colorings in
  DSATUR order with the exactly-d check (chromatic._exact_k_coloring).
* ``chi_via_quotients``: enumerate partitions of the vertex set into
  connected d-regular induced subgraphs, contract each, and take the minimum
  chromatic number of the quotients; the witness colors each part with its
  quotient color.

Partitions are restricted to connected parts: splitting a disconnected
d-regular part into its components never increases the quotient chromatic
number (the merged parts are non-adjacent, so any proper coloring of the
coarser quotient lifts), hence the minimum over connected-part partitions
equals the minimum over all partitions into d-regular induced subgraphs.

Unused colors are allowed throughout; ``brute_chi`` bounds how many an
exact coloring ever needs, which certifies infeasibility.
"""

from __future__ import annotations

from typing import NamedTuple

from .chromatic import DEFAULT_BUDGET, _Budget, _exact_k_coloring, chromatic_number
from .closedform import clique_lower_bound
from .coloring import (
    Coloring,
    INFEASIBLE,
    SolveOutcome,
    feasibility_precheck,
    lift_coloring,
    solve_by_component,
)
from .errors import BadParameterError
from .graphs import BlockCutTree, Graph, block_cut_tree, connected_components, contract_partition


def brute_solve(
    g: Graph, k: int, d: int, budget: int | _Budget = DEFAULT_BUDGET
) -> Coloring | None:
    """Decide whether an exact (k, d)-coloring exists; witness on yes, None on no.

    Components are independent (color classes may merge across them), so the
    search runs per component.  Raises BudgetExceededError when the node
    budget runs out.
    """
    if d < 0:
        raise BadParameterError("defect must be nonnegative")
    if k < 0:
        raise BadParameterError("color count must be nonnegative")
    if g.n == 0:
        return Coloring(k, ())
    comps = connected_components(g)
    if k == 0 or not feasibility_precheck(g, d, map(len, comps)):
        return None
    b = _Budget.of(budget)

    def solve_one(h: Graph):
        color = _exact_k_coloring(h, k, d, b)
        return None if color is None else (k, color)

    return solve_by_component(g, comps, solve_one)


def _kcap(order: int, block: int, d: int) -> int:
    # see brute_chi; a component with no block is one vertex
    return max(1, min(order // (d + 1), block))


def _kcaps(bct: BlockCutTree, d: int) -> list[int]:
    """_kcap of each component, in root order: its largest ring comes before its root."""
    caps, block = [], 1
    orders = iter(bct.component_orders)
    for i, ring in bct.sweep:
        if i is None:
            caps.append(_kcap(next(orders), block, d))
            block = 1
        elif len(ring) > block:
            block = len(ring)
    return caps


def brute_chi(
    g: Graph, d: int, budget: int | _Budget = DEFAULT_BUDGET, bct: BlockCutTree | None = None
) -> SolveOutcome:
    """Smallest k admitting an exact (k, d)-coloring, or the infeasible outcome.

    A component with an exact coloring has one with min(n // (d+1), B)
    colors, B its largest block: classes have d + 1 or more vertices, and
    as same-colored counts add up over blocks, root first along the
    block-cut tree each block's colors can be renamed injectively into
    [0, B).  Failing there certifies infeasibility.  `bct` is g's
    block-cut tree when the caller has it.
    """
    if d < 0:
        raise BadParameterError("defect must be nonnegative")
    bct = bct or block_cut_tree(g)
    if not feasibility_precheck(g, d, bct.component_orders):
        return INFEASIBLE
    comps = connected_components(g)  # in root order, as the caps are
    caps = iter(_kcaps(bct, d))
    b = _Budget.of(budget)

    def smallest_k(h: Graph):
        cap = next(caps)
        for k in range(min(clique_lower_bound(h, d, b), cap), cap + 1):
            color = _exact_k_coloring(h, k, d, b)
            if color is not None:
                return k, color
        return None

    witness = solve_by_component(g, comps, smallest_k)
    return INFEASIBLE if witness is None else SolveOutcome.finite(witness.k, witness)


# ---------------------------------------------------------------------------
# Partitions into d-regular induced subgraphs
# ---------------------------------------------------------------------------

class RegularPartition(NamedTuple):
    """A partition of the vertex set into connected d-regular induced parts."""

    parts: tuple[tuple[int, ...], ...]
    d: int


def _connected_regular_sets(
    g: Graph, d: int, v: int, avail: set[int], b: _Budget
) -> list[tuple[int, ...]]:
    """All connected vertex sets S with v in S, S within avail, inducing a
    d-regular subgraph.  Each set is produced exactly once; the growth order
    makes the output deterministic."""
    if d == 0:
        return [(v,)]
    in_part = {v}
    deg_in = {v: 0}
    seen = {v}
    results: list[tuple[int, ...]] = []

    def rec(ext: list[int]):
        b.spend()
        if all(deg_in[u] == d for u in in_part):
            results.append(tuple(sorted(in_part)))
            return  # any strict superset would push a saturated vertex past d
        for i, w in enumerate(ext):
            inc = [u for u in g.adj[w] if u in in_part]
            if len(inc) > d or any(deg_in[u] == d for u in inc):
                continue  # stays invalid forever: degrees only grow
            in_part.add(w)
            deg_in[w] = len(inc)
            for u in inc:
                deg_in[u] += 1
            fresh = sorted(
                x for x in g.adj[w] if x in avail and x not in seen
            )
            seen.update(fresh)
            rec(ext[i + 1:] + fresh)
            seen.difference_update(fresh)
            for u in inc:
                deg_in[u] -= 1
            del deg_in[w]
            in_part.remove(w)

    first = sorted(u for u in g.adj[v] if u in avail)
    seen.update(first)
    rec(first)
    return results


def enumerate_regular_partitions(
    g: Graph,
    d: int,
    limit: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[RegularPartition]:
    """All partitions of V into connected d-regular induced subgraphs.

    The lowest-indexed unassigned vertex starts a new part and the part is
    extended to every d-regular completion; recursion then continues on the
    rest.  Output order is deterministic, so `limit`-truncated prefixes are
    reproducible.
    """
    if d < 0:
        raise BadParameterError("defect must be nonnegative")
    b = _Budget(budget)
    out: list[RegularPartition] = []
    avail = set(range(g.n))
    parts: list[tuple[int, ...]] = []

    def rec() -> bool:
        b.spend()
        if not avail:
            out.append(RegularPartition(tuple(parts), d))
            return limit is not None and len(out) >= limit
        v = min(avail)
        avail.discard(v)
        candidates = _connected_regular_sets(g, d, v, avail, b)
        avail.add(v)
        for s in candidates:
            avail.difference_update(s)
            parts.append(s)
            done = rec()
            parts.pop()
            avail.update(s)
            if done:
                return True
        return False

    rec()
    return out


def chi_via_quotients(
    g: Graph, d: int, budget: int = DEFAULT_BUDGET
) -> SolveOutcome:
    """Exact defective chromatic number as min over quotient chromatic numbers.

    Infeasible when no partition into d-regular induced subgraphs exists;
    otherwise the minimum chromatic number over all contracted quotients,
    with the witness obtained by blowing the best quotient coloring back up
    (every part takes its quotient vertex's color).
    """
    if g.n == 0:
        return SolveOutcome.finite(0, Coloring(0, ()))
    partitions = enumerate_regular_partitions(g, d, budget=budget)
    if not partitions:
        return INFEASIBLE
    lower = clique_lower_bound(g, d, budget)
    best: Coloring | None = None
    for rp in partitions:
        quotient = contract_partition(g, rp.parts)
        q_chi, q_col = chromatic_number(quotient, budget)
        if best is None or q_chi < best.k:
            best = lift_coloring(g.n, rp.parts, q_col.assign, q_chi)
            if best.k <= lower:
                break
    return SolveOutcome.finite(best.k, best)
