"""One solve pipeline: a table of routes over the lazily built structure of a graph.

``solve`` answers chi_d, or "is chi_d <= k?", with the report that
``exactcolor solve`` prints (schema in docs/report-schema.json).  Each route
pairs a solver with the structural test under which it answers exactly.
``algorithm="auto"`` runs the first route whose test holds; any other value
runs the first applicable route of the group of that name.  One node budget
is shared by every search the chosen route runs.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

from .blockgraph import blockgraph_chi
from .cactus import cactus_chi1, cactus_chi2
from .chromatic import DEFAULT_BUDGET, _Budget, chromatic_number
from .closedform import chi_regular_trivial, chi_wheel
from .coloring import (
    INFEASIBLE,
    Coloring,
    SolveOutcome,
    infeasibility_reason,
    is_exact_coloring,
    lift_coloring,
)
from .errors import BadParameterError, BudgetExceededError, ExactColoringError, InvalidWitnessError
from .graphs import Graph, GraphClasses, recognize
from .oracle import brute_chi, brute_solve

class Report(NamedTuple):
    """One solve answer, with the fields of docs/report-schema.json."""

    verdict: str                 # "yes", "no", "infinite" or "unknown"
    d: int
    k: int | None
    chi: int | None
    witness: Coloring | None
    algorithm: str               # the route that answered or gave up
    elapsed_ms: float
    reason: str | None
    n: int
    m: int

    def to_dict(self) -> dict:
        """The JSON object of the schema."""
        out = self._asdict()
        if self.witness is not None:
            out["witness"] = {"k": self.witness.k, "assign": list(self.witness.assign)}
        return out


class Route(NamedTuple):
    name: str                    # reported as the report's algorithm
    group: str | None            # the `algorithm` that selects it; None: auto only
    applies: Callable[[GraphClasses, int], object]  # truthy: the route runs
    # run(s, d, k, budget) -> exact value, or a forced decision search's witness
    # (chi stays unknown), or None: that search said no
    run: Callable[[GraphClasses, int, int | None, _Budget], SolveOutcome | Coloring | None]


def _brute(s: GraphClasses, d: int, k, budget: _Budget) -> SolveOutcome | Coloring | None:
    if k is None:
        return brute_chi(s.g, d, budget=budget)
    return brute_solve(s.g, k, d, budget=budget)


def _relabel(outcome: SolveOutcome, order: list[int]) -> SolveOutcome:
    """Carry a closed form's witness over to g, where vertex order[i] plays vertex i."""
    if outcome.is_infeasible:
        return outcome
    w = outcome.witness
    lifted = lift_coloring(len(order), ([v] for v in order), w.assign, w.k)
    return SolveOutcome.finite(outcome.chi, lifted)


# A route's test is the whole statement of its domain: the cactus rows cover
# d = 2 and d = 1, the block-graph row d >= 1.  There is one route per
# structure class: cycles and trees answer as cacti, complete graphs as block
# graphs, so the wheel row comes after them (K4 is also the wheel W4).  The
# runs look solvers up by name when called, so wrapping a solver in its module
# namespace (as a tracer does) also wraps it here.  Auto always computes chi,
# even for a decision query; only a forced brute search decides "chi_d <= k"
# directly, and then reports no chi.  The precheck applies with the failed
# condition, which becomes the report's reason.  Every solver reads the
# block-cut tree off its graph (Graph.bct), which builds it once.
ROUTES = (
    Route("chromatic", None, lambda s, d: d == 0,
          lambda s, d, k, budget: SolveOutcome.finite(*chromatic_number(s.g, budget))),
    Route("precheck", None, lambda s, d: infeasibility_reason(s.g, d), lambda *_: INFEASIBLE),
    Route("closedform:regular", "closedform", lambda s, d: s.regular_degree == d,
          lambda s, d, *_: chi_regular_trivial(s.g, d)),
    Route("cactus", "cactus", lambda s, d: d == 2 and s.is_cactus,
          lambda s, d, *_: cactus_chi2(s.g)),
    Route("cactus", "cactus", lambda s, d: d == 1 and s.is_cactus,
          lambda s, d, *_: cactus_chi1(s.g)),
    Route("blockgraph", "blockgraph", lambda s, d: d >= 1 and s.is_block_graph,
          lambda s, d, *_: blockgraph_chi(s.g, d)),
    Route("closedform:wheel", "closedform", lambda s, d: d == 1 and s.wheel_order,
          lambda s, d, *_: _relabel(chi_wheel(s.g.n, d), s.wheel_order)),
    Route("brute", None, lambda s, d: True, lambda s, d, k, b: brute_chi(s.g, d, budget=b)),
    Route("brute", "brute", lambda s, d: True, _brute),
)

ALGORITHMS = ("auto", *dict.fromkeys(r.group for r in ROUTES if r.group))


def _report(g: Graph, d: int, k: int | None, answer, algorithm: str, reason: str | None,
            elapsed_ms: float) -> Report:
    """Turn a route's answer, or the BudgetExceededError it raised, into a report."""
    chi = witness = None
    if isinstance(answer, BudgetExceededError):
        verdict, reason = "unknown", str(answer)
    elif answer is None:
        verdict = "no"
    elif isinstance(answer, Coloring):
        verdict, witness = "yes", answer
    elif answer.is_infeasible:
        verdict = "infinite" if k is None else "no"
        if k is not None:
            reason = reason or "infeasible (chi = infinity)"
    else:
        chi, witness = answer.chi, answer.witness
        verdict = "yes" if k is None or chi <= k else "no"
    return Report(verdict, d, k, chi, witness, algorithm, elapsed_ms, reason, g.n, g.m)


def solve(
    g: Graph, d: int, k: int | None = None, algorithm: str = "auto", budget: int = DEFAULT_BUDGET
) -> Report:
    """Compute chi_d of g (k None) or decide chi_d <= k, through one route.

    Raises ExactColoringError when `algorithm` is unknown, d, k or budget is
    negative, or no route of `algorithm` applies.  A search that exhausts
    `budget` gives an "unknown" report naming the route that gave up.  Every
    finite witness passes is_exact_coloring before it is reported; one that
    fails raises InvalidWitnessError.
    """
    if algorithm not in ALGORITHMS:
        raise ExactColoringError(f"unknown algorithm {algorithm!r}")
    if d < 0:
        raise BadParameterError("defect must be nonnegative")
    if k is not None and k < 0:
        raise BadParameterError("color count must be nonnegative")
    if budget < 0:
        raise BadParameterError("budget must be nonnegative")
    start = time.perf_counter()
    s = recognize(g)
    for route in (r for r in ROUTES if algorithm in ("auto", r.group)):
        if why := route.applies(s, d):
            break
    else:
        raise ExactColoringError(f"no {algorithm} route applies to this graph at d = {d}")
    try:
        answer = route.run(s, d, k, _Budget(budget))
    except BudgetExceededError as exc:
        answer = exc
    witness = answer.witness if isinstance(answer, SolveOutcome) else answer
    if isinstance(witness, Coloring) and not is_exact_coloring(g, witness, d):
        raise InvalidWitnessError(f"{route.name} returned a witness that is not exact at d = {d}")
    elapsed_ms = round((time.perf_counter() - start) * 1000, 3)
    reason = why if route.name == "precheck" else None
    return _report(g, d, k, answer, route.name, reason, elapsed_ms)
