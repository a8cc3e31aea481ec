import random

from hypothesis import given, settings, strategies as st
import pytest

from exactcolor import (
    Coloring,
    LengthMismatchError,
    build_graph,
    complete,
    cycle,
    defects,
    feasibility_precheck,
    is_exact_coloring,
    is_proper,
    monochromatic,
    path,
)


@st.composite
def graph_with_coloring(draw, max_n=9, max_k=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    k = draw(st.integers(min_value=1, max_value=max_k))
    assign = tuple(draw(st.integers(min_value=0, max_value=k - 1)) for _ in range(n))
    return build_graph(n, edges), Coloring(k, assign)


class TestDefects:
    def test_monochromatic_cycle(self):
        assert defects(cycle(5), monochromatic(5)) == [2, 2, 2, 2, 2]

    def test_proper_c4(self):
        assert defects(cycle(4), Coloring(2, (0, 1, 0, 1))) == [0, 0, 0, 0]

    def test_path3_monochromatic(self):
        assert defects(path(3), monochromatic(3)) == [1, 2, 1]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            defects(cycle(4), monochromatic(3))

    @given(graph_with_coloring())
    @settings(max_examples=80)
    def test_defect_sum_is_even(self, gc):
        g, c = gc
        assert sum(defects(g, c)) % 2 == 0

    @given(graph_with_coloring())
    @settings(max_examples=80)
    def test_counts_each_vertex_s_same_colored_neighbors(self, gc):
        g, c = gc
        a = c.assign
        assert defects(g, c) == [sum(a[u] == a[v] for u in g.adj[v]) for v in range(g.n)]

    @given(graph_with_coloring())
    @settings(max_examples=60)
    def test_defect_bounded_by_degree(self, gc):
        g, c = gc
        for v, x in enumerate(defects(g, c)):
            assert 0 <= x <= g.degree(v)


class TestIsExactColoring:
    def test_cycle5_monochromatic_d2(self):
        assert is_exact_coloring(cycle(5), monochromatic(5), 2)

    def test_cycle8_paper_pattern_d1(self):
        # pairs of consecutive matched edges, alternating colors
        c = Coloring(2, (0, 0, 1, 1, 0, 0, 1, 1))
        assert is_exact_coloring(cycle(8), c, 1)

    def test_k4_unbalanced_split_not_exact_d1(self):
        c = Coloring(2, (0, 1, 1, 1))
        assert not is_exact_coloring(complete(4), c, 1)

    @given(graph_with_coloring())
    @settings(max_examples=80)
    def test_matches_per_class_regularity_audit(self, gc):
        # exactness iff every color class induces a d-regular subgraph
        g, c = gc
        for d in range(0, 4):
            induced_ok = True
            for cls in c.classes():
                members = set(cls)
                if any(
                    sum(1 for u in g.adj[v] if u in members) != d for v in cls
                ):
                    induced_ok = False
                    break
            assert is_exact_coloring(g, c, d) == induced_ok

    def test_agrees_with_the_defect_list(self):
        rng = random.Random(8)
        agreed = 0
        for _ in range(600):
            n, k = rng.randint(0, 9), rng.randint(1, 3)
            g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
            c = Coloring(k, tuple(rng.randrange(k) for _ in range(n)))
            per_vertex = defects(g, c)
            for d in {0, 1, 2, *per_vertex[:1]}:  # d = vertex 0's defect makes "exact" common
                exact = is_exact_coloring(g, c, d)
                assert exact == (per_vertex == [d] * n)
                agreed += exact
        assert agreed >= 100


class TestIsProper:
    def test_alternating_c4(self):
        assert is_proper(cycle(4), Coloring(2, (0, 1, 0, 1)))

    def test_odd_cycle_never_2_proper(self):
        from itertools import product

        g = cycle(5)
        assert not any(
            is_proper(g, Coloring(2, assign)) for assign in product(range(2), repeat=5)
        )

    def test_edgeless_one_color(self):
        g = build_graph(4, [])
        assert is_proper(g, monochromatic(4))


class TestFeasibilityPrecheck:
    def test_path3_d2(self):
        assert not feasibility_precheck(path(3), 2)

    def test_cycle9_d2(self):
        assert feasibility_precheck(cycle(9), 2)

    def test_odd_defect_needs_even_components(self):
        # handshake lemma: each class of a component has even order when d is odd
        assert not feasibility_precheck(cycle(9), 1)
        assert feasibility_precheck(cycle(8), 1)
        two_triangles_and_k4 = build_graph(
            10, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
            + [(6 + i, 6 + j) for i in range(4) for j in range(i + 1, 4)]
        )
        assert not feasibility_precheck(two_triangles_and_k4, 1)
        assert feasibility_precheck(two_triangles_and_k4, 2)

    def test_single_vertex_d0(self):
        assert feasibility_precheck(build_graph(1, []), 0)

    def test_disconnected_components(self):
        # K2 plus K4: the K2 component caps the feasible defect at 1
        g = build_graph(6, [(0, 1)] + [(i, j) for i in range(2, 6) for j in range(i + 1, 6)])
        assert not feasibility_precheck(g, 3)
        assert not feasibility_precheck(g, 2)
        assert feasibility_precheck(g, 1)
        assert feasibility_precheck(build_graph(8, [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(4 + i, 4 + j) for i in range(4) for j in range(i + 1, 4)]), 3)
