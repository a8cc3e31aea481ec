"""Executable hardness constructions with round-trip verification support.

Each generator returns the target graph together with a ReductionMap that
records, for every target vertex, where it came from (original vertex,
gadget member, clause or variable role).  The map embeds the source
instance, so ``lift_solution`` can both read a source solution off a target
coloring and check it against the source-side contract.  A failed check
raises LiftContractViolatedError: that always means a bug somewhere, never
a normal "no" answer.

"Arbitrary" choices the constructions leave open (which gadget vertex is
identified, which edge is deleted, which cycle vertex is labeled) are fixed
to the lowest-index candidate so outputs are deterministic.

Constructions:

* ``reduce_coloring_to_exact``: proper k-coloring -> exact (k, d)-coloring
  by hanging a K_{d+1} off every vertex (identified at that vertex).
* ``reduce_planar_variant``: same attachment with a planar d-regular gadget
  (K2, K3, K4, octahedron, icosahedron for d = 1..5) on a 4-regular input,
  keeping the target planar with maximum degree d + 4.
* ``reduce_increment_defect``: exact (2, d) -> exact (2, d+2) by attaching
  to every vertex a (d+3)-clique with one edge deleted and the two loose
  endpoints wired to the vertex.
* ``reduce_nae3sat``: monotone NAE-3SAT -> exact (2, 2)-coloring; clause
  gadget K3 + (K2 u K1), variable gadget C4 (or C3 behind a flag).
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import NamedTuple

from .coloring import Coloring, is_exact_coloring, is_proper
from .errors import (
    BadParameterError,
    LiftContractViolatedError,
    MalformedFormulaError,
    NotFourRegularError,
    ParseError,
)
from .families import complete, icosahedron, octahedron
from .graph_io import _records
from .graphs import Graph, build_graph


class _NaeFormula(NamedTuple):
    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]


class NaeFormula(_NaeFormula):
    """Monotone NAE-3SAT instance: 3-clauses of positive variable indices."""

    __slots__ = ()

    def __new__(cls, num_vars: int, clauses: tuple[tuple[int, int, int], ...]):
        for clause in clauses:
            if len(clause) != 3:
                raise MalformedFormulaError("clauses must have exactly 3 literals")
            if any(not 0 <= x < num_vars for x in clause):
                raise MalformedFormulaError("variable index out of range")
        return super().__new__(cls, num_vars, clauses)


def nae_satisfiable(f: NaeFormula) -> list[bool] | None:
    """Exhaustive NAE check: every clause needs a true and a false literal.

    Returns a satisfying assignment or None.  Intended for small instances;
    this is the independent source-side oracle for the reduction tests.
    """
    for bits in range(1 << f.num_vars):
        assignment = [(bits >> i) & 1 == 1 for i in range(f.num_vars)]
        if all(
            any(assignment[x] for x in clause) and not all(assignment[x] for x in clause)
            for clause in f.clauses
        ):
            return assignment
    return None


def parse_nae_formula(data, strict: bool = False) -> NaeFormula:
    """Parse "p nae <vars> <clauses>" followed by 1-based "a b c 0" lines.

    With strict=True a clause repeating a variable is rejected; otherwise it
    is kept verbatim.
    """
    header = None
    clauses = []
    for lineno, fields in _records(data, "c"):
        if fields[0] == "p":
            if header is not None:
                raise ParseError("duplicate header", lineno)
            if len(fields) != 4 or fields[1] != "nae":
                raise ParseError("expected 'p nae <vars> <clauses>'", lineno)
            try:
                header = (int(fields[2]), int(fields[3]))
            except ValueError:
                raise ParseError("non-integer in header", lineno) from None
            continue
        if header is None:
            raise ParseError("clause before header", lineno)
        try:
            nums = [int(x) for x in fields]
        except ValueError:
            raise ParseError("non-integer literal", lineno) from None
        if len(nums) != 4 or nums[3] != 0:
            raise ParseError("expected 'a b c 0'", lineno)
        lits = nums[:3]
        if any(x < 1 or x > header[0] for x in lits):
            raise ParseError("literal out of range", lineno)
        if strict and len(set(lits)) != 3:
            raise ParseError("repeated variable in clause (strict mode)", lineno)
        clauses.append(tuple(x - 1 for x in lits))
    if header is None:
        raise ParseError("missing header", 1)
    if len(clauses) != header[1]:
        raise ParseError(
            f"header declares {header[1]} clauses but {len(clauses)} found", 1
        )
    return NaeFormula(header[0], tuple(clauses))


def format_nae_formula(f: NaeFormula) -> str:
    lines = [f"p nae {f.num_vars} {len(f.clauses)}"]
    lines += [f"{a + 1} {b + 1} {c + 1} 0" for a, b, c in f.clauses]
    return "\n".join(lines) + "\n"


class ReductionMap(NamedTuple):
    """Provenance of every target vertex plus the embedded source instance."""

    kind: str                                  # coloring | planar | increment | nae3sat
    params: dict
    target_n: int
    provenance: tuple[tuple, ...]              # one record per target vertex
    source_graph: Graph | None = None
    formula: NaeFormula | None = None

    def originals(self) -> list[int]:
        """Target indices of source vertices, listed by source vertex index."""
        out = {}
        for tv, rec in enumerate(self.provenance):
            if rec[0] == "original":
                out[rec[1]] = tv
        return [out[v] for v in sorted(out)]

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "params": self.params,
            "target_n": self.target_n,
            "provenance": [list(rec) for rec in self.provenance],
        }
        if self.source_graph is not None:
            payload["source_graph"] = {
                "n": self.source_graph.n,
                "edges": self.source_graph.edges(),
            }
        if self.formula is not None:
            payload["formula"] = {
                "num_vars": self.formula.num_vars,
                "clauses": [list(c) for c in self.formula.clauses],
            }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ReductionMap":
        payload = json.loads(text)
        source = None
        if "source_graph" in payload:
            sg = payload["source_graph"]
            source = build_graph(sg["n"], [tuple(e) for e in sg["edges"]])
        formula = None
        if "formula" in payload:
            ff = payload["formula"]
            formula = NaeFormula(ff["num_vars"], tuple(tuple(c) for c in ff["clauses"]))
        return cls(
            kind=payload["kind"],
            params=payload["params"],
            target_n=payload["target_n"],
            provenance=tuple(tuple(rec) for rec in payload["provenance"]),
            source_graph=source,
            formula=formula,
        )


def _attach_gadgets(g: Graph, gadget: Graph, kind: str, params: dict) -> tuple[Graph, ReductionMap]:
    """Identify gadget vertex 0 with every source vertex; the rest are fresh."""
    extra = gadget.n - 1
    edges = list(g.edges())
    provenance: list[tuple] = [("original", v) for v in range(g.n)]
    for v in range(g.n):
        base = g.n + v * extra
        ids = [v] + [base + t for t in range(extra)]
        edges += [(ids[a], ids[b]) for a, b in gadget.edges()]
        provenance += [("gadget", v, t) for t in range(1, gadget.n)]
    target = build_graph(g.n + g.n * extra, edges)
    rmap = ReductionMap(
        kind=kind,
        params=params,
        target_n=target.n,
        provenance=tuple(provenance),
        source_graph=g,
    )
    return target, rmap


def reduce_coloring_to_exact(g: Graph, k: int, d: int) -> tuple[Graph, ReductionMap]:
    """Proper k-colorability of g <=> exact (k, d)-colorability of the output.

    Attaches a K_{d+1} to every vertex, identified at its lowest-index
    gadget vertex.  The output has n(d+1) vertices.
    """
    if k < 3:
        raise BadParameterError("this construction needs k >= 3")
    if d < 1:
        raise BadParameterError("this construction needs d >= 1")
    return _attach_gadgets(g, complete(d + 1), "coloring", {"k": k, "d": d})


_PLANAR_GADGETS = {
    1: lambda: complete(2),
    2: lambda: complete(3),
    3: lambda: complete(4),
    4: octahedron,
    5: icosahedron,
}


def reduce_planar_variant(g: Graph, d: int) -> tuple[Graph, ReductionMap]:
    """Planar 3-coloring variant: attach a planar d-regular gadget to each vertex.

    The source must be 4-regular (as in the hard 3-coloring instances this
    targets); resulting degrees are d and d + 4.
    """
    if not 1 <= d <= 5:
        raise BadParameterError("planar gadgets exist for 1 <= d <= 5")
    if any(len(a) != 4 for a in g.adj):
        raise NotFourRegularError("source graph must be 4-regular")
    return _attach_gadgets(g, _PLANAR_GADGETS[d](), "planar", {"k": 3, "d": d})


def reduce_increment_defect(g: Graph, d: int) -> tuple[Graph, ReductionMap]:
    """Exact (2, d)-colorability of g <=> exact (2, d+2) of the output.

    Every vertex v gains a (d+3)-clique whose lexicographically first edge
    is deleted and replaced by two edges into v.  The output has n(d+4)
    vertices.
    """
    if d < 1:
        raise BadParameterError("this construction needs d >= 1")
    size = d + 3
    edges = list(g.edges())
    provenance: list[tuple] = [("original", v) for v in range(g.n)]
    for v in range(g.n):
        base = g.n + v * size
        ids = list(range(base, base + size))
        # clique minus its (0,1) edge; both loose endpoints attach to v
        edges += [
            (ids[a], ids[b]) for a, b in combinations(range(size), 2) if (a, b) != (0, 1)
        ]
        edges += [(v, ids[0]), (v, ids[1])]
        provenance += [("bridge", v, t) for t in range(2)]
        provenance += [("inner", v, t) for t in range(2, size)]
    target = build_graph(g.n + g.n * size, edges)
    rmap = ReductionMap(
        kind="increment",
        params={"k": 2, "source_d": d, "target_d": d + 2},
        target_n=target.n,
        provenance=tuple(provenance),
        source_graph=g,
    )
    return target, rmap


def reduce_nae3sat(f: NaeFormula, variable_gadget: str = "c4") -> tuple[Graph, ReductionMap]:
    """Monotone NAE-3SAT <=> exact (2, 2)-coloring.

    Variable i gets a cycle gadget (C4 by default, C3 behind the flag) whose
    vertex 0 is its labeled vertex.  Clause j gets a copy of
    K3 + (K2 u K1) with the K3 vertices standing for its three literals,
    each wired to the matching variable's labeled vertex.  Variable gadgets
    occupy indices [0, vlen * num_vars); clause gadgets follow, 6 vertices
    each, in role order lit0, lit1, lit2, pair0, pair1, single.
    """
    if variable_gadget not in ("c4", "c3"):
        raise BadParameterError("variable gadget must be 'c4' or 'c3'")
    vlen = 4 if variable_gadget == "c4" else 3
    edges: list[tuple[int, int]] = []
    provenance: list[tuple] = []
    for i in range(f.num_vars):
        base = i * vlen
        edges += [(base + t, base + (t + 1) % vlen) for t in range(vlen)]
        provenance += [("var", i, t) for t in range(vlen)]
    clause_base = f.num_vars * vlen
    roles = ("lit0", "lit1", "lit2", "pair0", "pair1", "single")
    for j, clause in enumerate(f.clauses):
        base = clause_base + 6 * j
        lits = [base, base + 1, base + 2]
        pair = [base + 3, base + 4]
        single = base + 5
        edges += [(lits[0], lits[1]), (lits[0], lits[2]), (lits[1], lits[2])]
        edges += [(pair[0], pair[1])]
        edges += [(a, b) for a in lits for b in pair + [single]]
        edges += [(lits[t], clause[t] * vlen) for t in range(3)]
        provenance += [("clause", j, role) for role in roles]
    target = build_graph(clause_base + 6 * len(f.clauses), edges)
    rmap = ReductionMap(
        kind="nae3sat",
        params={"k": 2, "d": 2, "variable_gadget": variable_gadget},
        target_n=target.n,
        provenance=tuple(provenance),
        formula=f,
    )
    return target, rmap


def lift_solution(rmap: ReductionMap, target_coloring: Coloring):
    """Read the source solution off a target coloring and verify it.

    For the graph reductions the lift is the restriction to original
    vertices, checked to be a proper k-coloring (coloring/planar) or an
    exact (2, d)-coloring (increment).  For nae3sat the lift reads one truth
    value per variable off its gadget color (gadgets must be monochromatic)
    and checks every clause is not-all-equal.  Violations raise
    LiftContractViolatedError.
    """
    if len(target_coloring.assign) != rmap.target_n:
        raise LiftContractViolatedError("coloring does not match the target size")

    if rmap.kind in ("coloring", "planar", "increment"):
        g = rmap.source_graph
        restriction = tuple(target_coloring.assign[tv] for tv in rmap.originals())
        lifted = Coloring(target_coloring.k, restriction)
        if rmap.kind == "increment":
            d = rmap.params["source_d"]
            if not is_exact_coloring(g, lifted, d):
                raise LiftContractViolatedError(
                    f"restriction is not an exact (2, {d})-coloring of the source"
                )
        else:
            if not is_proper(g, lifted):
                raise LiftContractViolatedError(
                    "restriction is not a proper coloring of the source"
                )
        return lifted

    if rmap.kind == "nae3sat":
        f = rmap.formula
        vlen = 4 if rmap.params["variable_gadget"] == "c4" else 3
        truth = []
        for i in range(f.num_vars):
            colors = {target_coloring.assign[i * vlen + t] for t in range(vlen)}
            if len(colors) != 1:
                raise LiftContractViolatedError(f"variable gadget {i} is not monochromatic")
            truth.append(colors.pop() == 1)
        for j, clause in enumerate(f.clauses):
            values = [truth[x] for x in clause]
            if all(values) or not any(values):
                raise LiftContractViolatedError(f"clause {j} is not NAE under the lift")
        return truth

    raise BadParameterError(f"unknown reduction kind {rmap.kind!r}")
