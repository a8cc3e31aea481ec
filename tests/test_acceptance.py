"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every stated runtime budget is asserted, not just observed.
"""

import random
import time

from exactcolor import (
    brute_chi,
    brute_solve,
    build_graph,
    cactus_chi2,
    cartesian_k2_complete,
    categorical_k2_complete,
    chi_complete,
    chi_cycle,
    chi_via_quotients,
    chi_wheel,
    chromatic_number,
    complete,
    cycle,
    is_exact_coloring,
    lift_solution,
    nae_satisfiable,
    NaeFormula,
    octahedron,
    petersen,
    random_block_graph,
    random_cactus,
    random_graph,
    reduce_coloring_to_exact,
    reduce_increment_defect,
    reduce_nae3sat,
    reduce_planar_variant,
    tightness_gadget,
    wheel,
)
from exactcolor.blockgraph import blockgraph_chi

from conftest import m_cycle_sets, permuted


def _passline(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def _same(a, b):
    return (a.chi, a.is_infeasible) == (b.chi, b.is_infeasible)


def test_criterion_1_cycle_table():
    start = time.perf_counter()
    for n in range(3, 21):
        d1 = chi_cycle(n, 1)
        if n % 4 == 0:
            assert d1.chi == 2
        elif n % 2 == 0:
            assert d1.chi == 3
        else:
            assert d1.is_infeasible
        if d1.is_finite:
            assert is_exact_coloring(cycle(n), d1.witness, 1)
        d2 = chi_cycle(n, 2)
        assert d2.chi == 1
        if n <= 12:
            assert _same(d1, brute_chi(cycle(n), 1))
            assert _same(d2, brute_chi(cycle(n), 2))
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    _passline(1, f"cycle table n=3..20, d in {{1,2}}, brute-checked to 12 ({elapsed:.2f}s)")


def test_criterion_2_wheel_table():
    start = time.perf_counter()
    for n in range(4, 17):
        out = chi_wheel(n, 1)
        if n == 4:
            assert out.chi == 2
        elif n % 2 == 0:
            assert out.chi == 3
        else:
            assert out.is_infeasible
        if out.is_finite:
            assert is_exact_coloring(wheel(n), out.witness, 1)
        if n <= 10:
            assert _same(out, brute_chi(wheel(n), 1))
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    _passline(2, f"wheel table n=4..16, brute-checked to 10 ({elapsed:.2f}s)")


def test_criterion_3_complete_graphs():
    start = time.perf_counter()
    for n in range(1, 13):
        for d in range(0, 5):
            out = chi_complete(n, d)
            if n % (d + 1) == 0:
                assert out.chi == n // (d + 1)
                assert is_exact_coloring(complete(n), out.witness, d)
            else:
                assert out.is_infeasible
            if n <= 8:
                assert _same(out, brute_chi(complete(n), d))
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _passline(3, f"complete graphs n<=12, d<=4, brute-checked to 8 ({elapsed:.2f}s)")


def test_criterion_4_petersen_extremal():
    start = time.perf_counter()
    out = brute_chi(petersen(), 1)
    assert out.chi == 5 == 2 * 3 - 1
    assert is_exact_coloring(petersen(), out.witness, 1)
    # independent route: min over the 6 perfect-matching quotients
    alt = chi_via_quotients(petersen(), 1)
    assert alt.chi == 5
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    _passline(4, f"petersen chi_1 = 5 by both routes ({elapsed:.2f}s)")


def test_criterion_5_quotient_equivalence():
    start = time.perf_counter()
    rng = random.Random(42)
    checked = 0
    for i in range(200):
        n = rng.randint(1, 9)
        p = rng.uniform(0.15, 0.75)
        g = random_graph(n, p=p, seed=1000 + i)
        for d in (1, 2):
            a = brute_chi(g, d)
            b = chi_via_quotients(g, d)
            assert _same(a, b), f"disagreement at graph #{i} (n={n}), d={d}"
            if b.is_finite:
                assert is_exact_coloring(g, b.witness, d)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    _passline(5, f"{checked} brute-vs-quotient comparisons on 200 random graphs ({elapsed:.2f}s)")


def test_criterion_6_product_separations():
    start = time.perf_counter()
    for d, r in [(1, 2), (2, 2), (1, 3)]:
        m = (d + 1) * r
        box = cartesian_k2_complete(m)
        assert chromatic_number(box)[0] == m
        box_out = brute_chi(box, d)
        assert box_out.is_finite and box_out.chi <= r
        cat = categorical_k2_complete(m)
        assert chromatic_number(cat)[0] == 2
        cat_out = brute_chi(cat, d)
        assert cat_out.chi == r
        assert is_exact_coloring(cat, cat_out.witness, d)
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    _passline(6, f"product separations at (d,r) in {{(1,2),(2,2),(1,3)}} ({elapsed:.2f}s)")


def test_criterion_7_cactus_algorithm():
    start = time.perf_counter()
    styles = ("bridged", "petaled", "shared", "mixed")

    # (a) 300 random cacti n <= 14 against the oracle; the M cycles must not
    # depend on the vertex numbering
    rng = random.Random(7)
    accepted = 0
    for i in range(300):
        n = rng.randint(4, 14)
        style = styles[i % 4]
        g = random_cactus(n, seed=3000 + i, style=style)
        got = cactus_chi2(g)
        ref = brute_chi(g, 2)
        assert _same(got, ref), f"cactus #{i} (n={n}, style={style}) disagrees"
        if got.is_finite:
            assert is_exact_coloring(g, got.witness, 2)
        if got.is_finite and got.chi == 2:
            accepted += 1
            base = m_cycle_sets(g)
            for _ in range(5):
                perm = list(range(g.n))
                rng.shuffle(perm)
                got = m_cycle_sets(permuted(g, perm))
                assert got == {frozenset(perm[v] for v in c) for c in base}
    assert accepted >= 30  # the corpus genuinely exercises the labeler

    # (b) 1000 random cacti up to n = 2000: completion, witnesses, scaling
    buckets = [(125, 400), (250, 250), (500, 200), (1000, 100), (2000, 50)]
    mean_ms = {}
    idx = 0
    for n, count in buckets:
        total = 0.0
        for j in range(count):
            g = random_cactus(n, seed=5000 + idx, style=styles[idx % 4])
            idx += 1
            t0 = time.perf_counter()
            out = cactus_chi2(g)
            total += time.perf_counter() - t0
            if out.is_finite and j % 25 == 0:
                assert is_exact_coloring(g, out.witness, 2)
        mean_ms[n] = 1000 * total / count
    # no worse than quadratic: a 4x size step may grow mean time 16x (+noise)
    assert mean_ms[2000] <= 32 * max(mean_ms[500], 0.05)
    assert mean_ms[1000] <= 32 * max(mean_ms[250], 0.05)
    elapsed = time.perf_counter() - start
    _passline(
        7,
        "300 cacti vs oracle + relabeling invariance, 1000 cacti to n=2000, "
        f"mean ms per size {[(n, round(v, 2)) for n, v in mean_ms.items()]} ({elapsed:.2f}s)",
    )


def test_criterion_8_block_graphs():
    start = time.perf_counter()
    rng = random.Random(11)
    for i in range(300):
        n = rng.randint(4, 14)
        g = random_block_graph(n, seed=4000 + i)
        for d in (1, 2, 3):
            got = blockgraph_chi(g, d)
            ref = brute_chi(g, d)
            assert _same(got, ref), (
                "factor-independence guard: block graph "
                f"seed={4000 + i} d={d} edges={g.edges()} got={got} ref={ref}"
            )
            if got.is_finite:
                assert is_exact_coloring(g, got.witness, d)
    elapsed = time.perf_counter() - start
    assert elapsed < 900
    _passline(8, f"300 block graphs, d in {{1,2,3}}, all match the oracle ({elapsed:.2f}s)")


def _antiprism4():
    return build_graph(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
         (0, 4), (0, 5), (1, 5), (1, 6), (2, 6), (2, 7), (3, 7), (3, 4)],
    )


def _squared_cycle9():
    return build_graph(9, [(i, (i + 1) % 9) for i in range(9)] + [(i, (i + 2) % 9) for i in range(9)])


def test_criterion_9_reduction_round_trips():
    start = time.perf_counter()
    rng = random.Random(13)

    # proper coloring -> exact coloring: 30 sources with n <= 7
    sources = [complete(3), complete(4), cycle(5), cycle(7), wheel(5), wheel(6)]
    while len(sources) < 30:
        sources.append(random_graph(rng.randint(4, 7), p=rng.uniform(0.3, 0.8), seed=len(sources)))
    for i, g in enumerate(sources):
        d = 1 + i % 2
        source_yes = chromatic_number(g)[0] <= 3
        target, rmap = reduce_coloring_to_exact(g, 3, d)
        assert target.n == g.n * (d + 1)
        w = brute_solve(target, 3, d)
        assert (w is not None) == source_yes, f"coloring reduction #{i}"
        if w is not None:
            lift_solution(rmap, w)

    # exact (2,d) -> exact (2,d+2): 30 sources with n <= 5
    inc_sources = [cycle(4), cycle(5), complete(4), build_graph(2, [(0, 1)])]
    while len(inc_sources) < 30:
        inc_sources.append(random_graph(rng.randint(2, 5), p=rng.uniform(0.3, 0.9), seed=100 + len(inc_sources)))
    for i, g in enumerate(inc_sources):
        source_yes = brute_solve(g, 2, 1) is not None
        target, rmap = reduce_increment_defect(g, 1)
        assert target.n == g.n * 5
        w = brute_solve(target, 2, 3)
        assert (w is not None) == source_yes, f"increment reduction #{i}"
        if w is not None:
            lift_solution(rmap, w)

    # monotone NAE-3SAT -> exact (2,2): 30 formulas, <= 3 clauses, <= 5 vars
    formulas = [NaeFormula(4, ((0, 1, 2), (0, 2, 3)))]
    while len(formulas) < 30:
        nv = rng.randint(3, 5)
        clauses = tuple(
            tuple(sorted(rng.sample(range(nv), 3))) for _ in range(rng.randint(1, 3))
        )
        formulas.append(NaeFormula(nv, clauses))
    for i, f in enumerate(formulas):
        source_yes = nae_satisfiable(f) is not None
        target, rmap = reduce_nae3sat(f)
        w = brute_solve(target, 2, 2)
        assert (w is not None) == source_yes, f"nae reduction #{i}"
        if w is not None:
            lift_solution(rmap, w)

    # the worked 2-clause instance specifically: YES at (2,2), lift is NAE
    fig = formulas[0]
    target, rmap = reduce_nae3sat(fig)
    assert target.n == 28 and target.m == 48
    w = brute_solve(target, 2, 2)
    assert w is not None and is_exact_coloring(target, w, 2)
    truth = lift_solution(rmap, w)
    for clause in fig.clauses:
        values = [truth[x] for x in clause]
        assert any(values) and not all(values)

    # planar attachment variant over 4-regular sources with known chi
    planar_corpus = [
        (octahedron(), True),
        (_squared_cycle9(), True),
        (_antiprism4(), False),
        (complete(5), False),
        (cartesian_k2_complete(4), False),
    ]
    for g, source_yes in planar_corpus:
        assert (chromatic_number(g)[0] <= 3) == source_yes
        for d in (1, 2):
            target, rmap = reduce_planar_variant(g, d)
            assert set(len(a) for a in target.adj) == {d, d + 4}
            w = brute_solve(target, 3, d)
            assert (w is not None) == source_yes
            if w is not None:
                lift_solution(rmap, w)

    elapsed = time.perf_counter() - start
    assert elapsed < 1200
    _passline(9, f"round-trips: 30+30+30 sized corpora, planar variants, worked instance ({elapsed:.2f}s)")


def test_criterion_10_tightness_witness():
    start = time.perf_counter()
    single = chi_via_quotients(tightness_gadget(), 1)
    assert single.chi == 3
    assert is_exact_coloring(tightness_gadget(), single.witness, 1)
    # disjoint union of three copies still needs three colors
    g1 = tightness_gadget()
    edges = []
    for copy in range(3):
        edges += [(u + 6 * copy, v + 6 * copy) for u, v in g1.edges()]
    triple = build_graph(18, edges)
    out = chi_via_quotients(triple, 1)
    assert out.chi == 3
    assert is_exact_coloring(triple, out.witness, 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    _passline(10, f"tightness gadget and 3 disjoint copies both need 3 colors ({elapsed:.2f}s)")
