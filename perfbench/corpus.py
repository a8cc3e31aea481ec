"""Seeded query corpus for the exactcolor benchmark.

Every workload is a fixed list of exactcolor CLI queries over graph files
written into a work directory.  The same workload and seed always give the
same files and the same queries.

Each solve query carries the answer it must produce.  Answers come from two
places:

* construction: families whose chi_d follows from how the benchmark builds
  them (cycles, wheels, complete graphs, trees, circulants, bridged and
  petaled cacti, clique trees, the ladder);
* golden.json: pools of seeded instances whose answers were computed once by
  make_golden.py, cross-checked by the quotient solver for n <= 20.  A run
  draws a seeded sample from each pool, one instance per group of pool
  entries of similar solve cost, so that one draw does not make a run much
  slower than another.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from exactcolor import families
from exactcolor.graphs import Graph, build_graph

GOLDEN_PATH = Path(__file__).with_name("golden.json")

ORACLE_BUDGET = 10_000_000
LADDER_BUDGET = 100_000


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

@dataclass
class Query:
    """One CLI call.  `expect` says what a correct answer looks like.

    expect["kind"] is "solve" (keys d, k, chi; chi None means infinite),
    "verify" (key valid) or "reduce" (key source_yes).  When `save_witness`
    is set, the runner writes the returned witness to that file and a
    corrupted copy next to it, for later verify queries.
    """

    qid: str
    argv: list[str]
    expect: dict
    save_witness: str | None = None


@dataclass
class Corpus:
    workload: str
    fresh_process: bool = False       # run each query in its own interpreter
    min_passes: int = 3               # least passes of an untraced run
    queries: list[Query] = field(default_factory=list)
    probes: list[Query] = field(default_factory=list)
    graphs: dict[str, Graph] = field(default_factory=dict)   # input graph by query id


class CorpusDriftError(Exception):
    """A pool instance no longer matches the graph golden.json was made from."""


def edge_digest(g: Graph) -> str:
    text = f"{g.n}:" + ";".join(f"{u},{v}" for u, v in g.edges())
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def write_graph_file(path: Path, g: Graph, fmt: str) -> None:
    edges = g.edges()
    if fmt == "dimacs":
        lines = [f"p edge {g.n} {len(edges)}"] + [f"e {u + 1} {v + 1}" for u, v in edges]
    else:
        lines = [f"{g.n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class _CorpusWriter:
    def __init__(self, workload: str, workdir: Path):
        self.corpus = Corpus(workload)
        self.dir = workdir
        self.count = 0

    def _qid(self, key: str) -> str:
        self.count += 1
        return f"q{self.count:04d}-{key}"

    def _file(self, key: str, g: Graph, fmt: str) -> str:
        name = f"{key}.{'dimacs' if fmt == 'dimacs' else 'txt'}"
        write_graph_file(self.dir / name, g, fmt)
        self.corpus.graphs[key] = g
        return name

    def solve(self, key, g, d, chi, *, k=None, fmt="edgelist", algorithm=None,
              budget=None, probe=False) -> None:
        qid = self._qid(key)
        argv = ["solve", self._file(qid, g, fmt), "--d", str(d)]
        argv += ["--chi"] if k is None else ["--k", str(k)]
        if algorithm:
            argv += ["--algorithm", algorithm]
        if budget:
            argv += ["--budget", str(budget)]
        q = Query(qid, argv, {"kind": "solve", "d": d, "k": k, "chi": chi})
        (self.corpus.probes if probe else self.corpus.queries).append(q)

    def verify(self, solved: Query, valid: bool) -> None:
        qid = self._qid("verify")
        coloring = solved.save_witness if valid else solved.save_witness + ".bad"
        argv = ["verify", solved.argv[1], coloring, "--d", str(solved.expect["d"])]
        self.corpus.queries.append(Query(qid, argv, {"kind": "verify", "valid": valid}))

    def reduce(self, key, g, k, d, source_yes) -> None:
        qid = self._qid(key)
        src = self._file(qid, g, "edgelist")
        argv = ["reduce", "coloring", src, "--k", str(k), "--d", str(d),
                "-o", f"{qid}.out.txt", "--map", f"{qid}.map.json", "--check"]
        self.corpus.queries.append(Query(qid, argv, {"kind": "reduce", "source_yes": source_yes}))


# ---------------------------------------------------------------------------
# Generators the package does not provide
# ---------------------------------------------------------------------------

def paired_tree(pairs: int, rng: random.Random) -> Graph:
    """Random tree with a perfect matching: pairs (2i, 2i+1) hung off earlier vertices."""
    edges = [(2 * i, 2 * i + 1) for i in range(pairs)]
    edges += [(rng.randrange(2 * i), 2 * i + rng.randrange(2)) for i in range(1, pairs)]
    return build_graph(2 * pairs, edges)


def random_tree(n: int, rng: random.Random) -> Graph:
    return build_graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def circulant(n: int, r: int) -> Graph:
    """C_n(1..r), a 2r-regular graph for n > 2r."""
    return build_graph(n, [(v, (v + j) % n) for v in range(n) for j in range(1, r + 1)])


def clique_tree(n: int, d: int, rng: random.Random) -> Graph:
    """Cliques of d+1, 2(d+1) and 3(d+1) vertices joined by bridges, n a multiple of d+1.

    The first clique has 3(d+1) vertices.  Every K_{d+1}-factor splits it
    into at least three mutually adjacent classes, and the factor that
    splits each clique into consecutive runs has a quotient whose largest
    clique is that triangle, so chi_d = 3.
    """
    r = d + 1
    sizes = (r, 2 * r, 3 * r)
    edges = []
    cur = 0
    size = 3 * r
    while True:
        block = range(cur, cur + size)
        edges += [(a, b) for a in block for b in block if a < b]
        if cur:
            edges.append((rng.randrange(cur), cur + rng.randrange(size)))
        cur += size
        if cur == n:
            return build_graph(n, edges)
        size = rng.choice([s for s in sizes if s <= n - cur])


def ladder(m: int) -> Graph:
    """P_m x K2: rails 0..m-1 and m..2m-1, rungs (i, m+i).  chi_1 = 2 via the rungs."""
    edges = [(i, m + i) for i in range(m)]
    edges += [(i, i + 1) for i in range(m - 1)] + [(m + i, m + i + 1) for i in range(m - 1)]
    return build_graph(2 * m, edges)


def chi_cycle_expected(n: int, d: int):
    if d == 2:
        return 1
    return None if n % 2 else (2 if n % 4 == 0 else 3)


def chi_wheel_expected(n: int):
    """Wheel on n vertices at d = 1."""
    return None if n % 2 else (2 if n == 4 else 3)


def chi_complete_expected(n: int, d: int):
    return n // (d + 1) if n % (d + 1) == 0 else None


# ---------------------------------------------------------------------------
# Golden pools
# ---------------------------------------------------------------------------

FIXED = {
    "petersen": (families.petersen, (1, 2, 3)),
    "icosahedron": (families.icosahedron, (1, 2, 3, 4, 5)),
    "octahedron": (families.octahedron, (1, 2, 3, 4)),
    "wheel9": (lambda: families.wheel(9), (1,)),
    "wheel11": (lambda: families.wheel(11), (1,)),
}


def _gnp(n, p, seed):
    return {"family": "gnp", "n": n, "p": p, "seed": seed}


def _pool_gnp(n, d):
    return lambda i, rng: (_gnp(n, 0.5, 1000 * n + i), d)


def _pool_cactus_d2(style):
    return lambda i, rng: ({"family": "cactus", "n": rng.randint(1800, 2200),
                            "style": style, "seed": i}, 2)


def _pool_cactus_d1(i, rng):
    spec = {"family": "cactus", "n": rng.randint(12, 80),
            "style": rng.choice(["bridged", "petaled", "shared", "mixed"]), "seed": i}
    return spec, 1


def _pool_block(i, rng):
    return {"family": "block", "n": rng.randint(1800, 2200), "seed": i}, rng.randint(1, 3)


def _pool_small(d):
    return lambda i, rng: (_gnp(rng.randint(8, 12), rng.choice([0.3, 0.5, 0.7]), i), d)


# name: (candidate maker, pool size, solve-cost cap in seconds or None, route)
# Route "brute" is the oracle with ORACLE_BUDGET; "auto" is the dispatcher.
POOLS = {
    "gnp16-d1": (_pool_gnp(16, 1), 36, 0.15, "brute"),
    "gnp16-d2": (_pool_gnp(16, 2), 36, 0.15, "brute"),
    "gnp18-d1": (_pool_gnp(18, 1), 8, 1.0, "brute"),
    "gnp18-d2": (_pool_gnp(18, 2), 8, 1.0, "brute"),
    "gnp11-d1": (_pool_gnp(11, 1), 24, None, "brute"),
    "gnp13-d1": (_pool_gnp(13, 1), 6, 1.5, "brute"),
    "cactus-shared-d2": (_pool_cactus_d2("shared"), 16, None, "auto"),
    "cactus-mixed-d2": (_pool_cactus_d2("mixed"), 16, None, "auto"),
    "cactus-d1": (_pool_cactus_d1, 60, 1.0, "auto"),
    "block": (_pool_block, 24, None, "auto"),
    "small-d0": (_pool_small(0), 60, None, "auto"),
    "small-d1": (_pool_small(1), 60, 0.5, "auto"),
}


def make_graph(spec: dict) -> Graph:
    fam = spec["family"]
    if fam == "gnp":
        return families.random_graph(spec["n"], spec["p"], spec["seed"])
    if fam == "cactus":
        return families.random_cactus(spec["n"], seed=spec["seed"], style=spec["style"])
    if fam == "block":
        return families.random_block_graph(spec["n"], seed=spec["seed"])
    raise ValueError(f"unknown family {fam!r}")


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def draw(pool: list[dict], count: int, rng: random.Random) -> list[dict]:
    """One entry from each of `count` consecutive groups of the cost-sorted pool."""
    entries = sorted(pool, key=lambda e: (e["cost_s"], e["spec"]["seed"]))
    size = len(entries) // count
    return [rng.choice(entries[i * size:(i + 1) * size]) for i in range(count)]


def _pool_queries(b, golden, name, count, rng, *, k=None, algorithm=None, budget=None,
                  fmt_of=lambda: "edgelist"):
    for entry in draw(golden["pools"][name], count, rng):
        g = make_graph(entry["spec"])
        if edge_digest(g) != entry["digest"]:
            raise CorpusDriftError(f"pool {name}: {entry['spec']} differs from golden.json")
        b.solve(name, g, entry["d"], entry["chi"], k=k, fmt=fmt_of(),
                algorithm=algorithm, budget=budget)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def poly_100k(seed: int, workdir: Path) -> Corpus:
    """Four 100k-vertex queries on the polynomial routes, answers fixed by construction."""
    rng = random.Random(f"poly-100k:{seed}")
    b = _CorpusWriter("poly-100k", workdir)
    b.corpus.fresh_process = True
    # Each query is sampled once per pass, so it takes four passes (50-70 s)
    # for a query's best latency to steady against the host's drift.
    b.corpus.min_passes = 4
    n = 100_000
    b.solve("cactus-bridged", families.random_cactus(n, seed=rng.randrange(2**32), style="bridged"), 2, 2)
    b.solve("cactus-petaled", families.random_cactus(n, seed=rng.randrange(2**32), style="petaled"), 2, 2)
    b.solve("block", families.random_block_graph(n, seed=rng.randrange(2**32)), 1, None)
    b.solve("clique-tree", clique_tree(n, 3, rng), 3, 3)
    return b.corpus


def oracle_hard(seed: int, workdir: Path) -> Corpus:
    """72 small hard queries, all forced through the brute-force oracle."""
    rng = random.Random(f"oracle-hard:{seed}")
    golden = load_golden()
    b = _CorpusWriter("oracle-hard", workdir)
    brute = {"algorithm": "brute", "budget": ORACLE_BUDGET}
    for name, (make, ds) in FIXED.items():
        for d in ds:
            b.solve(name, make(), d, golden["fixed"][f"{name}-d{d}"], **brute)
    # The costly pools are solved in full, so the oracle's total time and
    # latency tail do not depend on the seed; the seed draws the cheap ones.
    for name in ("gnp18-d1", "gnp18-d2", "gnp13-d1"):
        _pool_queries(b, golden, name, len(golden["pools"][name]), rng, **brute)
    for name in ("gnp16-d1", "gnp16-d2", "gnp11-d1"):
        _pool_queries(b, golden, name, 12, rng, **brute)
    rng.shuffle(b.corpus.queries)
    return b.corpus


def mixed_batch(seed: int, workdir: Path) -> Corpus:
    """About 380 medium queries over every route, plus verify and reduce calls."""
    rng = random.Random(f"mixed-batch:{seed}")
    golden = load_golden()
    b = _CorpusWriter("mixed-batch", workdir)

    def fmt():
        return "dimacs" if rng.random() < 0.15 else "edgelist"

    for _ in range(60):
        n, d = rng.randint(6, 60), rng.choice((1, 2))
        b.solve("cycle", families.cycle(n), d, chi_cycle_expected(n, d), fmt=fmt())
    for _ in range(30):
        n = rng.randint(5, 40)
        b.solve("wheel", families.wheel(n), 1, chi_wheel_expected(n), fmt=fmt())
    for _ in range(30):
        n, d = rng.randint(2, 24), rng.randint(0, 3)
        b.solve("complete", families.complete(n), d, chi_complete_expected(n, d), fmt=fmt())
    for _ in range(20):
        b.solve("tree-paired", paired_tree(rng.randint(5, 100), rng), 1, 2, fmt=fmt())
    for _ in range(10):
        b.solve("tree-odd", random_tree(2 * rng.randint(5, 100) + 1, rng), 1, None, fmt=fmt())
    for _ in range(10):
        b.solve("tree-d2", random_tree(rng.randint(10, 200), rng), 2, None, fmt=fmt())
    for _ in range(20):
        r = rng.randint(1, 3)
        b.solve("circulant", circulant(rng.randint(2 * r + 2, 100), r), 2 * r, 1, fmt=fmt())
    for style in ("bridged", "petaled"):
        for k in (None,) * 8 + (2,) * 4:
            g = families.random_cactus(rng.randint(1800, 2200), seed=rng.randrange(2**32), style=style)
            b.solve(f"cactus-{style}", g, 2, 2, k=k)
    for _ in range(12):
        d = rng.randint(1, 3)
        n = (d + 1) * rng.randint(1800 // (d + 1), 2200 // (d + 1))
        b.solve("clique-tree", clique_tree(n, d, rng), d, 3)
    for name in ("cactus-shared-d2", "cactus-mixed-d2"):
        _pool_queries(b, golden, name, 8, rng)
        _pool_queries(b, golden, name, 4, rng, k=2)
    _pool_queries(b, golden, "cactus-d1", 30, rng)
    _pool_queries(b, golden, "block", 12, rng)
    _pool_queries(b, golden, "small-d0", 30, rng, fmt_of=fmt)
    _pool_queries(b, golden, "small-d1", 30, rng, fmt_of=fmt)
    rng.shuffle(b.corpus.queries)

    # verify the witnesses of earlier solve queries, a third of them corrupted
    witnessed = [q for q in b.corpus.queries
                 if q.expect["k"] is None and q.expect["chi"] is not None and q.expect["d"] >= 1]
    for i, q in enumerate(rng.sample(witnessed, 30)):
        q.save_witness = f"{q.qid}.col"
        b.verify(q, valid=i % 3 != 2)

    # proper k-coloring -> exact (k, d) reductions, round-tripped by the oracle
    sources = [
        (families.cycle, lambda n: 2 if n % 2 == 0 else 3, (3, 8)),
        (families.complete, lambda n: n, (2, 5)),
        (families.path, lambda n: 2, (2, 8)),
        (families.wheel, lambda n: 3 if n % 2 else 4, (5, 8)),   # rim of n - 1 vertices
    ]
    for _ in range(10):
        make, chi, (lo, hi) = rng.choice(sources)
        n, d = rng.randint(lo, hi), rng.choice((1, 2))
        b.reduce("reduce", make(n), 3, d, chi(n) <= 3)

    # Known defect: the oracle recurses once per vertex and overflows the
    # interpreter stack here.  It is reported as a probe, outside the timed set.
    b.solve("ladder", ladder(1000), 1, 2, budget=LADDER_BUDGET, probe=True)
    return b.corpus


WORKLOADS = {
    "poly-100k": poly_100k,
    "oracle-hard": oracle_hard,
    "mixed-batch": mixed_batch,
}
