#!/usr/bin/env python3
"""Print the brute-force oracle's answer and search nodes on fixed hard instances.

One line per instance, "name d chi nodes": chi is "inf" when no exact
coloring exists and "unknown" when the 10^7-node budget runs out, and
nodes is what `brute_chi` spent of that budget.  Node counts are
deterministic, so two checkouts can be compared line by line:

    PYTHONPATH=src python3 tools/oracle_nodes.py > nodes.txt

The instances are the Petersen graph, the icosahedron and the octahedron
at every d up to their degree, small wheels at d = 1, larger wheels at
d = 2, and G(n, 0.5) with seed 1 at d = 1 and d = 2.  Every instance
makes the search spend nodes: the small wheels have even order, since
feasibility_precheck refutes a graph of odd order at odd d before any
search.
"""

from __future__ import annotations

import exactcolor as xc
from exactcolor.chromatic import _Budget

BUDGET = 10**7

# (name, graph, defects)
INSTANCES = (
    ("petersen", xc.petersen(), (1, 2, 3)),
    ("icosahedron", xc.icosahedron(), (1, 2, 3, 4, 5)),
    ("octahedron", xc.octahedron(), (1, 2, 3, 4)),
    ("W_10", xc.wheel(10), (1,)),
    ("W_12", xc.wheel(12), (1,)),
    ("W_16", xc.wheel(16), (2,)),
    ("W_18", xc.wheel(18), (2,)),
    *((f"G({n},0.5,1)", xc.random_graph(n, 0.5, seed=1), (1,)) for n in (16, 18, 20, 22)),
    *((f"G({n},0.5,1)", xc.random_graph(n, 0.5, seed=1), (2,)) for n in (16, 18, 20)),
)


def nodes_line(name: str, g: xc.Graph, d: int) -> str:
    b = _Budget(BUDGET)
    try:
        out = xc.brute_chi(g, d, budget=b)
        chi = "inf" if out.is_infeasible else out.chi
    except xc.BudgetExceededError:
        chi = "unknown"
    return f"{name} {d} {chi} {b.nodes - b.left}"


def main() -> None:
    for name, g, defects in INSTANCES:
        for d in defects:
            print(nodes_line(name, g, d), flush=True)


if __name__ == "__main__":
    main()
