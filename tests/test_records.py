"""The package's record types: tuples with field-wise equality, fixed reprs, no assignment."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import exactcolor as xc
from exactcolor.cactus import LabelResult, NoReason
from exactcolor.graphs import Matching
from exactcolor.oracle import RegularPartition
from exactcolor.reductions import ReductionMap

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_no_dataclasses():
    code = "import sys, exactcolor.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def report():
    rep = xc.solve(xc.cycle(4), 1)
    return rep._replace(elapsed_ms=1.5)


# (make, an equal copy made independently, one that differs in a field, repr)
RECORDS = [
    (lambda: xc.Coloring(2, (0, 1)), lambda: xc.Coloring(k=2, assign=(0, 1)),
     xc.Coloring(2, (1, 0)), "Coloring(k=2, assign=(0, 1))"),
    (lambda: xc.SolveOutcome.finite(2, xc.Coloring(2, (0, 1))),
     lambda: xc.SolveOutcome(2, xc.Coloring(2, (0, 1))), xc.INFEASIBLE, "SolveOutcome(chi=2)"),
    (lambda: xc.SolveOutcome.infeasible(), lambda: xc.SolveOutcome(None),
     xc.SolveOutcome(1, xc.Coloring(1, (0,))), "SolveOutcome(infeasible)"),
    (lambda: xc.block_cut_tree(xc.path(2)), lambda: xc.block_cut_tree(xc.build_graph(2, [(1, 0)])),
     xc.block_cut_tree(xc.cycle(3)),
     "BlockCutTree(blocks=((0, 1),), sweep=((0, (0, 1)), (None, (0,))), component_orders=(2,), "
     "is_cactus=True, is_block_graph=True)"),
    (lambda: Matching(((0, 1),), True), lambda: Matching(edges=((0, 1),), perfect=True),
     Matching(((0, 1),)), "Matching(edges=((0, 1),), perfect=True)"),
    (lambda: LabelResult(None, NoReason.ADJACENT_M), lambda: LabelResult(labels=None, reason=NoReason.ADJACENT_M),
     LabelResult(("M",)), "LabelResult(labels=None, reason=<NoReason.ADJACENT_M: 'adjacent_m'>)"),
    (lambda: RegularPartition(((0, 1), (2, 3)), 1), lambda: RegularPartition(parts=((0, 1), (2, 3)), d=1),
     RegularPartition(((0, 1), (2, 3)), 0), "RegularPartition(parts=((0, 1), (2, 3)), d=1)"),
    (lambda: xc.NaeFormula(3, ((0, 1, 2),)), lambda: xc.parse_nae_formula("p nae 3 1\n1 2 3 0\n"),
     xc.NaeFormula(4, ((0, 1, 2),)), "NaeFormula(num_vars=3, clauses=((0, 1, 2),))"),
    (report, report, xc.solve(xc.cycle(4), 1, k=1),
     "Report(verdict='yes', d=1, k=None, chi=2, witness=Coloring(k=2, assign=(0, 0, 1, 1)), "
     "algorithm='cactus', elapsed_ms=1.5, reason=None, n=4, m=4)"),
]


@pytest.mark.parametrize("make,twin,other,text", RECORDS, ids=[
    "Coloring", "SolveOutcome-finite", "SolveOutcome-infeasible", "BlockCutTree", "Matching",
    "LabelResult", "RegularPartition", "NaeFormula", "Report"])
def test_record_equality_hash_repr_and_immutability(make, twin, other, text):
    a, b = make(), twin()
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != other
    assert repr(a) == text
    field = type(a)._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert make() == a  # unchanged


def test_records_are_tuples():
    assert xc.Coloring(2, (0, 1)) == (2, (0, 1))
    k, assign = xc.Coloring(2, (0, 1))
    assert (k, assign) == (2, (0, 1))
    assert xc.INFEASIBLE == (None, None)


def test_reduction_map_compares_by_field_and_is_frozen():
    g = xc.cycle(4)
    a, b = xc.reduce_increment_defect(g, 1)[1], xc.reduce_increment_defect(g, 1)[1]
    assert a == b and a != xc.reduce_increment_defect(g, 2)[1]
    assert repr(a).startswith("ReductionMap(kind='increment', params={")
    with pytest.raises(AttributeError):
        a.kind = "coloring"
    with pytest.raises(TypeError):  # params is a dict, so a map has no hash, as before
        hash(a)
    assert ReductionMap("k", {}, 0, ()).source_graph is None


def test_report_dict_keeps_the_schema_order():
    rep = xc.solve(xc.cycle(4), 1)
    out = rep.to_dict()
    assert list(out) == ["verdict", "d", "k", "chi", "witness", "algorithm", "elapsed_ms",
                         "reason", "n", "m"]
    assert out["witness"] == {"k": 2, "assign": [0, 0, 1, 1]}
    assert rep.witness == xc.Coloring(2, (0, 0, 1, 1))  # to_dict leaves the report as it was


@pytest.mark.parametrize("k,assign", [(2, (0, 2)), (2, (-1, 0)), (0, (0,))])
def test_coloring_rejects_a_color_outside_its_range(k, assign):
    with pytest.raises(xc.OutOfRangeError, match=r"^color index outside \[0, k\)$"):
        xc.Coloring(k, assign)
    with pytest.raises(xc.OutOfRangeError):
        xc.Coloring(k=k, assign=assign)


def test_empty_coloring_needs_no_colors():
    assert xc.Coloring(0, ()).k == 0


@pytest.mark.parametrize("num_vars,clauses,message", [
    (3, ((0, 1),), "clauses must have exactly 3 literals"),
    (3, ((0, 1, 2, 0),), "clauses must have exactly 3 literals"),
    (3, ((0, 1, 3),), "variable index out of range"),
    (3, ((0, -1, 2),), "variable index out of range"),
])
def test_nae_formula_rejects_malformed_clauses(num_vars, clauses, message):
    with pytest.raises(xc.MalformedFormulaError, match=f"^{message}$"):
        xc.NaeFormula(num_vars, clauses)
    with pytest.raises(xc.MalformedFormulaError, match=f"^{message}$"):
        xc.NaeFormula(num_vars=num_vars, clauses=clauses)
