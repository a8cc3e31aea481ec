#!/usr/bin/env python3
"""Print exactcolor's answers on a seeded corpus, one line per case.

Each line is "verdict chi algorithm sha1": chi is "-" when the report has
none, and sha1 hashes the witness (its k and the color of every vertex),
"-" when there is none.  Timings are left out, so two checkouts print the
same bytes exactly when they give the same answers and witnesses:

    PYTHONPATH=src python3 tools/answer_digest.py --cases 5000 --seed 1 > new.txt

The corpus mixes random cacti of the four styles, random block graphs,
random trees, cycles, wheels, complete graphs, G(n, p) with n <= 10, and
disjoint unions of two or three of these (or isolated vertices) with their
vertices interleaved, at d in 0..3 and k in {None, 1, 2, 3}, half of them
with their vertices renumbered.  Only the public API is used (exactcolor.solve and the graph
builders), so the script runs unchanged on older checkouts.
"""

from __future__ import annotations

import argparse
import hashlib
import random

import exactcolor as xc

BUDGET = 10**6  # search nodes per case: a case past it reports "unknown", the same way every run


def _tree(n: int, seed: int) -> xc.Graph:
    rng = random.Random(seed)
    return xc.build_graph(n, [(v, rng.randrange(v)) for v in range(1, n)])


# (smallest n, largest n, builder(n, seed))
MEMBERS = (
    *((3, 60, lambda n, s, style=style: xc.random_cactus(n, seed=s, style=style))
      for style in ("bridged", "petaled", "shared", "mixed")),
    (1, 60, lambda n, s: xc.random_block_graph(n, seed=s)),
    (1, 60, _tree),
    (3, 40, lambda n, s: xc.cycle(n)),
    (4, 10, lambda n, s: xc.wheel(n)),
    (1, 8, lambda n, s: xc.complete(n)),
    (1, 10, lambda n, s: xc.random_graph(n, p=random.Random(s).random(), seed=s)),
)


def _union(n: int, seed: int) -> xc.Graph:
    """Two or three members of at most n vertices each, renumbered together.

    A member is an isolated vertex a third of the time, else a graph of
    one of the other families.
    """
    rng = random.Random(seed)
    edges, size = [], 0
    for _ in range(rng.randint(2, 3)):
        if rng.random() < 1 / 3:
            h = xc.build_graph(1, [])
        else:
            lo, hi, build = rng.choice(MEMBERS)
            h = build(rng.randint(lo, max(lo, min(hi, n))), rng.randrange(10**6))
        edges += [(u + size, v + size) for u, v in h.edges()]
        size += h.n
    perm = rng.sample(range(size), size)
    return xc.build_graph(size, [(perm[u], perm[v]) for u, v in edges])


FAMILIES = (*MEMBERS, (1, 12, _union))


def corpus(cases: int, seed: int):
    """Yield (graph, d, k) for each case, all drawn from one seeded generator."""
    rng = random.Random(seed)
    for _ in range(cases):
        lo, hi, build = rng.choice(FAMILIES)
        g = build(rng.randint(lo, hi), rng.randrange(10**6))
        if rng.random() < 0.5:
            perm = rng.sample(range(g.n), g.n)
            g = xc.build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        yield g, rng.randrange(4), rng.choice((None, 1, 2, 3))


def digest_line(g: xc.Graph, d: int, k: int | None) -> str:
    rep = xc.solve(g, d, k, budget=BUDGET)
    w = rep.witness
    sha = "-" if w is None else hashlib.sha1(f"{w.k}:{list(w.assign)}".encode()).hexdigest()
    chi = "-" if rep.chi is None else rep.chi
    return f"{rep.verdict} {chi} {rep.algorithm} {sha}"


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", type=int, default=1000, help="number of cases (default 1000)")
    ap.add_argument("--seed", type=int, default=1, help="corpus seed (default 1)")
    args = ap.parse_args(argv)
    for g, d, k in corpus(args.cases, args.seed):
        print(digest_line(g, d, k))


if __name__ == "__main__":
    main()
