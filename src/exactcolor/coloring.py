"""Coloring model, the exactness validator, and the solver outcome type.

An exact (k, d)-coloring assigns one of k colors to every vertex so that
each vertex has exactly d neighbors of its own color; equivalently, every
color class induces a d-regular subgraph.  Colors may go unused: the
question "does a coloring with at most k classes exist" is monotone in k.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import LengthMismatchError, OutOfRangeError
from .graphs import Graph


class _Coloring(NamedTuple):
    k: int
    assign: tuple[int, ...]


class Coloring(_Coloring):
    """k available colors and a per-vertex color index in [0, k)."""

    __slots__ = ()

    def __new__(cls, k: int, assign: tuple[int, ...]):
        if assign and not (0 <= min(assign) and max(assign) < k):
            raise OutOfRangeError("color index outside [0, k)")
        return super().__new__(cls, k, assign)

    def classes(self) -> list[list[int]]:
        """Vertex lists per color, including empty classes."""
        out: list[list[int]] = [[] for _ in range(self.k)]
        for v, c in enumerate(self.assign):
            out[c].append(v)
        return out


def monochromatic(n: int) -> Coloring:
    return Coloring(1, (0,) * n)


class SolveOutcome(NamedTuple):
    """Value of the exact defective chromatic number for one query.

    Either finite with a witness coloring, or infeasible (the value is
    infinity: no exact coloring exists for any number of colors).  The
    infinite case is a distinct variant, never a sentinel integer.
    """

    chi: int | None
    witness: Coloring | None = None

    @classmethod
    def finite(cls, chi: int, witness: Coloring) -> "SolveOutcome":
        return cls(chi, witness)

    @classmethod
    def infeasible(cls) -> "SolveOutcome":
        return cls(None, None)

    @property
    def is_finite(self) -> bool:
        return self.chi is not None

    @property
    def is_infeasible(self) -> bool:
        return self.chi is None

    def __repr__(self) -> str:
        if self.is_infeasible:
            return "SolveOutcome(infeasible)"
        return f"SolveOutcome(chi={self.chi})"


INFEASIBLE = SolveOutcome.infeasible()


def lift_coloring(n: int, parts, colors, k: int) -> Coloring:
    """Lift a quotient coloring: every vertex of parts[i] gets colors[i], out of k."""
    assign = [0] * n
    for part, c in zip(parts, colors):
        for v in part:
            assign[v] = c
    return Coloring(k, tuple(assign))


def defects(g: Graph, c: Coloring) -> list[int]:
    """Per-vertex count of same-colored neighbors."""
    if len(c.assign) != g.n:
        raise LengthMismatchError(
            f"coloring covers {len(c.assign)} vertices, graph has {g.n}"
        )
    a = c.assign
    out = []
    for nbrs, cv in zip(g.adj, a):
        same = 0
        for u in nbrs:
            if a[u] == cv:
                same += 1
        out.append(same)
    return out


def is_exact_coloring(g: Graph, c: Coloring, d: int) -> bool:
    """True iff every vertex has exactly d same-colored neighbors."""
    if len(c.assign) != g.n:
        return False
    a = c.assign
    for nbrs, cv in zip(g.adj, a):
        same = 0
        for u in nbrs:
            if a[u] == cv:
                same += 1
        if same != d:
            return False
    return True


def is_proper(g: Graph, c: Coloring) -> bool:
    """True iff no edge is monochromatic (exactness with d = 0)."""
    return is_exact_coloring(g, c, 0)


def infeasibility_reason(g: Graph, d: int) -> str | None:
    """The cheap necessary condition for an exact (k, d)-coloring that g fails, or None.

    Every color class induces a d-regular subgraph, so a coloring needs
    d <= min degree (which also gives every component more than d vertices).
    The part of a class inside one component is d-regular too; for odd d it
    has even order (handshake lemma), hence so does each component, and an
    odd n already shows one of odd order.  Only odd d at even n reads the
    component orders, off g's block-cut tree (Graph.bct).
    """
    if g.n == 0 or d <= 0:
        return None
    if d > g.min_degree():
        return "d exceeds min degree"
    if d % 2 == 0:
        return None
    if g.n % 2 == 0 and not any(order % 2 for order in g.bct.component_orders):
        return None
    return "d is odd and a component has odd order"


def feasibility_precheck(g: Graph, d: int) -> bool:
    """True unless infeasibility_reason finds g infeasible; necessary, not sufficient."""
    return infeasibility_reason(g, d) is None
