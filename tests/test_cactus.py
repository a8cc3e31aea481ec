import random
from itertools import combinations

import pytest

from exactcolor import (
    IncompleteLabelingError,
    NotACactusError,
    brute_chi,
    build_graph,
    cactus_chi1,
    cactus_chi2,
    cactus_extract_coloring,
    cactus_label,
    cactus_preprocess,
    complete,
    cycle,
    is_bipartite,
    is_exact_coloring,
    random_cactus,
    tightness_gadget,
)
from exactcolor.cactus import NoReason

from conftest import m_cycle_sets, permuted, planted_cactus


def cycle_adjacency(aux):
    """Pairs of cycle indices sharing a vertex (the v_i-v_j edges of the auxiliary graph)."""
    return {(a, b) for cyc_list in aux.cliques for a, b in combinations(cyc_list, 2)}


def by_cycle(aux, values):
    """Per-cycle values keyed by each cycle's vertex set."""
    return dict(zip(map(frozenset, aux.cycles), values))


def petal(core_len, i):
    """The private triangle on core vertex i of a core cycle with petals 2i + core_len, +1."""
    return frozenset((i, core_len + 2 * i, core_len + 2 * i + 1))


def triangle():
    return build_graph(3, [(0, 1), (1, 2), (2, 0)])


def triangle_with_pendant():
    return build_graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])


class TestPreprocess:
    def test_single_triangle(self):
        aux = cactus_preprocess(triangle())
        assert aux.cycles == ((0, 1, 2),)
        assert aux.has_w == (True,)
        assert all(aux.cliques[j] == (0,) for j in range(3))

    def test_bowtie(self, bowtie):
        aux = cactus_preprocess(bowtie)
        assert len(aux.cycles) == 2
        assert aux.has_w == (True, True)
        assert aux.cliques[2] == (0, 1)
        assert cycle_adjacency(aux) == {(0, 1)}

    def test_guard(self):
        with pytest.raises(NotACactusError):
            cactus_preprocess(complete(4))

    def test_sunlet(self, sunlet_cactus):
        aux = cactus_preprocess(sunlet_cactus)
        assert len(aux.cycles) == 5
        # the central C4 owns no cycle-simplicial vertex; the petals do
        assert by_cycle(aux, aux.has_w) == {
            frozenset(range(4)): False, **{petal(4, i): True for i in range(4)}
        }


class TestLabel:
    def test_single_triangle_monochromatic(self):
        aux = cactus_preprocess(triangle())
        res = cactus_label(aux)
        assert res.ok and res.labels == ("M",)

    def test_bowtie_rejects(self, bowtie):
        res = cactus_label(cactus_preprocess(bowtie))
        assert not res.ok
        assert res.reason == NoReason.TWO_SIMPLICIAL_CYCLES_TOUCH

    def test_pendant_vertex_rejects(self):
        res = cactus_label(cactus_preprocess(triangle_with_pendant()))
        assert res.reason == NoReason.UNCOVERED_VERTEX

    def test_sunlet_center_is_polychromatic(self, sunlet_cactus):
        aux = cactus_preprocess(sunlet_cactus)
        res = cactus_label(aux)
        assert res.ok
        assert by_cycle(aux, res.labels) == {
            frozenset(range(4)): "P", **{petal(4, i): "M" for i in range(4)}
        }

    def test_odd_p_cycle_goes_away_with_more_colors(self):
        # triangle ring: C3 with a private triangle on each vertex
        edges = [(0, 1), (1, 2), (2, 0)]
        for i in range(3):
            a, b = 3 + 2 * i, 4 + 2 * i
            edges += [(i, a), (i, b), (a, b)]
        g = build_graph(9, edges)
        aux = cactus_preprocess(g)
        res = cactus_label(aux)
        assert res.ok
        assert by_cycle(aux, res.labels) == {
            frozenset(range(3)): "P", **{petal(3, i): "M" for i in range(3)}
        }
        # the one labeling is complete; the odd P core shows in the extraction
        col = cactus_extract_coloring(aux, res)
        assert col.k == 3
        assert is_exact_coloring(g, col, 2)

    def test_all_p_clique_rejection(self):
        # vertex 0 sits in two C4s whose other corners all carry private
        # seed triangles: both C4s are forced polychromatic, leaving vertex 0
        # with no monochromatic cycle to supply its two same-colored neighbors
        edges = []
        fresh = 1
        corners = []
        for _ in range(2):
            c1, c2, c3 = fresh, fresh + 1, fresh + 2
            fresh += 3
            edges += [(0, c1), (c1, c2), (c2, c3), (c3, 0)]
            corners += [c1, c2, c3]
        for c in corners:
            a, b = fresh, fresh + 1
            fresh += 2
            edges += [(c, a), (c, b), (a, b)]
        g = build_graph(fresh, edges)
        aux = cactus_preprocess(g)
        assert cactus_label(aux).reason == NoReason.ALL_P_CLIQUE
        assert cactus_chi2(g).is_infeasible
        assert brute_chi(g, 2).is_infeasible

    def test_adjacent_m_rejection_in_propagation(self):
        # two triangles sharing vertex 3, neither owning a cycle-simplicial
        # vertex; their remaining corners anchor C4s that all turn
        # polychromatic, so propagation forces both triangles monochromatic
        # one after the other and the second collides with the first
        edges = [(0, 3), (3, 4), (0, 4), (1, 2), (2, 3), (1, 3)]
        fresh = 5

        def p_gadget(anchor, edges, fresh):
            s1, mid, s2 = fresh, fresh + 1, fresh + 2
            fresh += 3
            edges += [(anchor, s1), (s1, mid), (mid, s2), (s2, anchor)]
            for corner in (s1, mid, s2):
                a, b = fresh, fresh + 1
                fresh += 2
                edges += [(corner, a), (corner, b), (a, b)]
            return fresh

        for anchor in (0, 1, 2, 4):
            fresh = p_gadget(anchor, edges, fresh)
        g = build_graph(fresh, edges)
        aux = cactus_preprocess(g)
        assert cactus_label(aux).reason == NoReason.ADJACENT_M
        assert cactus_chi2(g).is_infeasible

    def test_labeling_invariant_under_relabeling(self, sunlet_cactus):
        # the M cycles of pi(g) are pi of those of g: the sweep's root and
        # order do not change the labeling
        base = m_cycle_sets(sunlet_cactus)
        rng = random.Random(1)
        for _ in range(5):
            perm = list(range(sunlet_cactus.n))
            rng.shuffle(perm)
            got = m_cycle_sets(permuted(sunlet_cactus, perm))
            assert got == {frozenset(perm[v] for v in c) for c in base}

    def test_no_cycle_factor_reason_names_the_missing_factor(self):
        # a vertex on two polychromatic triangles is left uncovered; the
        # reason names that, not the odd triangles around it
        for seed in range(40):
            g, _ = planted_cactus(60, seed, perturb="p_only")
            reason = cactus_label(cactus_preprocess(g)).reason
            assert reason in (NoReason.ALL_P_CLIQUE, NoReason.ADJACENT_M)
            assert cactus_chi2(g).is_infeasible


class TestExtract:
    def test_single_triangle_all_zero(self):
        aux = cactus_preprocess(triangle())
        res = cactus_label(aux)
        col = cactus_extract_coloring(aux, res)
        assert col == (1, (0, 0, 0))

    def test_two_triangles_bridge(self, two_triangles_bridge):
        g = two_triangles_bridge
        aux = cactus_preprocess(g)
        res = cactus_label(aux)
        col = cactus_extract_coloring(aux, res)
        assert col.k == 2 and is_exact_coloring(g, col, 2)
        assert len(set(col.assign[:3])) == 1 and len(set(col.assign[3:])) == 1
        assert col.assign[0] != col.assign[3]

    def test_rejected_labeling_raises(self, bowtie):
        aux = cactus_preprocess(bowtie)
        res = cactus_label(aux)
        assert not res.ok
        with pytest.raises(IncompleteLabelingError):
            cactus_extract_coloring(aux, res)

    def test_mixed_labels_extractions_validate(self, sunlet_cactus):
        aux = cactus_preprocess(sunlet_cactus)
        res = cactus_label(aux)
        col = cactus_extract_coloring(aux, res)
        assert col.k == 2 and is_exact_coloring(sunlet_cactus, col, 2)


class TestCactusChi2:
    def test_cycles_get_one(self):
        assert cactus_chi2(cycle(7)).chi == 1

    def test_bowtie_infeasible(self, bowtie):
        assert cactus_chi2(bowtie).is_infeasible
        assert brute_chi(bowtie, 2).is_infeasible

    def test_triangle_c4_triangle_chain(self):
        # triangle sharing a vertex with a C4, which shares another with a triangle
        edges = [(0, 1), (1, 2), (2, 0)]          # triangle at 0,1,2
        edges += [(2, 3), (3, 4), (4, 5), (5, 2)]  # C4 at 2,3,4,5
        edges += [(4, 6), (6, 7), (7, 4)]          # triangle at 4,6,7
        g = build_graph(8, edges)
        a, b = cactus_chi2(g), brute_chi(g, 2)
        assert (a.chi, a.is_infeasible) == (b.chi, b.is_infeasible)
        if a.is_finite:
            assert is_exact_coloring(g, a.witness, 2)

    def test_three_colors_needed(self):
        # C3 of triangles: strict labeling fails on the odd central cycle
        edges = [(0, 1), (1, 2), (2, 0)]
        for i in range(3):
            a, b = 3 + 2 * i, 4 + 2 * i
            edges += [(i, a), (i, b), (a, b)]
        g = build_graph(9, edges)
        out = cactus_chi2(g)
        assert out.chi == 3
        assert is_exact_coloring(g, out.witness, 2)
        assert brute_chi(g, 2).chi == 3

    @pytest.mark.parametrize("style", ["mixed", "bridged", "shared"])
    @pytest.mark.parametrize("seed", range(15))
    def test_random_cacti_agree_with_brute(self, seed, style):
        n = 6 + seed % 8
        g = random_cactus(n, seed=seed * 31, style=style)
        a, b = cactus_chi2(g), brute_chi(g, 2)
        assert (a.chi, a.is_infeasible) == (b.chi, b.is_infeasible)
        if a.is_finite:
            assert is_exact_coloring(g, a.witness, 2)

    def test_guard(self):
        with pytest.raises(NotACactusError):
            cactus_chi2(complete(4))


class TestPlantedFactor:
    def test_small_planted_cacti_agree_with_brute(self):
        perturbations = ("pendant", "triangle", "bare")
        answers = set()
        for i in range(360):
            perturb = None if i % 3 else perturbations[i // 3 % 3]
            g, _ = planted_cactus(5 + i % 10, seed=i, perturb=perturb)
            a, b = cactus_chi2(g), brute_chi(g, 2)
            assert (a.chi, a.is_infeasible) == (b.chi, b.is_infeasible), (i, g)
            if a.is_finite:
                assert is_exact_coloring(g, a.witness, 2)
            answers.add(a.chi)
        assert answers == {1, 2, 3, None}

    @pytest.mark.parametrize("n", [20, 200, 2000])
    def test_labels_are_the_planted_factor(self, n):
        for seed in range(20):
            g, factor = planted_cactus(n, seed)
            assert m_cycle_sets(g) == set(factor)
            perm = list(range(g.n))
            random.Random(seed).shuffle(perm)
            want = {frozenset(perm[v] for v in c) for c in factor}
            assert m_cycle_sets(permuted(g, perm)) == want

    @pytest.mark.parametrize("n", [200, 2000])
    def test_chi2_is_the_planted_value(self, n):
        # 1 for one cycle, 3 if some polychromatic cycle is odd, else 2
        for seed in range(20):
            g, factor = planted_cactus(n, seed)
            p_lengths = [len(c) for c in cactus_preprocess(g).cycles if frozenset(c) not in factor]
            want = 1 if len(factor) == 1 else 3 if any(b % 2 for b in p_lengths) else 2
            perm = list(range(g.n))
            random.Random(seed).shuffle(perm)
            for h in (g, permuted(g, perm)):
                out = cactus_chi2(h)
                assert out.chi == want, (n, seed)
                assert is_exact_coloring(h, out.witness, 2)


class TestCactusChi1:
    def test_tightness_gadget_needs_three(self):
        out = cactus_chi1(tightness_gadget())
        assert out.chi == 3
        assert is_exact_coloring(tightness_gadget(), out.witness, 1)

    def test_cycle8(self):
        out = cactus_chi1(cycle(8))
        assert out.chi == 2
        assert is_exact_coloring(cycle(8), out.witness, 1)

    def test_cycle5_infeasible(self):
        assert cactus_chi1(cycle(5)).is_infeasible

    def test_perfect_matching_graph_gets_one(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert cactus_chi1(g).chi == 1

    @pytest.mark.parametrize("seed", range(80))
    def test_random_cacti_agree_with_brute(self, seed):
        # 320 cacti of even order 4 <= n <= 14 (odd orders have no perfect matching)
        for style in ("mixed", "bridged", "shared", "petaled"):
            g = random_cactus(4 + 2 * (seed % 6), seed=seed * 17, style=style)
            a, b = cactus_chi1(g), brute_chi(g, 1)
            assert (a.chi, a.is_infeasible) == (b.chi, b.is_infeasible), (style, g)
            if a.is_finite:
                assert is_exact_coloring(g, a.witness, 1)

    @pytest.mark.parametrize("style", ["mixed", "bridged", "shared", "petaled"])
    @pytest.mark.parametrize("subdivide", [False, True])
    def test_corona_of_a_large_cactus(self, style, subdivide):
        # a pendant on every vertex: the pendant edges are the perfect
        # matching, G/M is the cactus itself, so chi_1 is 2 exactly when
        # every cycle is even (subdividing every edge makes them even)
        base = random_cactus(10_000, seed=1, style=style)
        edges = base.edges()
        if subdivide:
            edges = [e for i, (u, v) in enumerate(edges) for e in ((u, base.n + i), (base.n + i, v))]
        n = base.n + (base.m if subdivide else 0)  # one new vertex per subdivided edge
        g = build_graph(2 * n, edges + [(v, n + v) for v in range(n)])
        out = cactus_chi1(g)
        assert out.chi == (2 if subdivide or is_bipartite(base)[0] else 3)
        assert is_exact_coloring(g, out.witness, 1)

    def test_d_above_two_infeasible_by_degree(self):
        # cactus minimum degree is at most 2, so defect 3 can never be exact
        g = random_cactus(9, seed=3)
        assert brute_chi(g, 3).is_infeasible
