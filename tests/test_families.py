import pytest

from exactcolor import (
    BadParameterError,
    block_cut_tree,
    cartesian_k2_complete,
    categorical_k2_complete,
    complete,
    connected_components,
    cycle,
    gen_family,
    icosahedron,
    is_bipartite,
    is_chordal,
    is_d_regular,
    octahedron,
    petersen,
    random_block_graph,
    random_cactus,
    random_graph,
    star,
    tightness_gadget,
    wheel,
    write_graph,
)


class TestDegreeClosedForms:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_cycle(self, n):
        g = cycle(n)
        assert g.n == n and g.m == n and is_d_regular(g, 2)

    def test_wheel(self):
        for n in range(4, 10):
            g = wheel(n)
            assert g.degree(n - 1) == n - 1
            assert all(g.degree(v) == 3 for v in range(n - 1))

    def test_wheel4_is_k4(self):
        assert wheel(4) == complete(4)

    def test_star(self):
        g = star(5)
        assert g.degree(0) == 4 and all(g.degree(v) == 1 for v in range(1, 5))

    def test_petersen(self):
        g = petersen()
        assert g.n == 10 and g.m == 15 and is_d_regular(g, 3)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_cartesian_product_m_regular(self, m):
        assert is_d_regular(cartesian_k2_complete(m), m)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_categorical_product(self, m):
        g = categorical_k2_complete(m)
        assert is_d_regular(g, m - 1)
        assert is_bipartite(g)[0]

    def test_categorical_k2_k4_by_hand(self):
        # expand the definition: (i, j) ~ (i', j') iff i != i' and j != j'
        g = categorical_k2_complete(4)
        assert g.n == 8
        for a in range(4):
            for b in range(4):
                assert g.has_edge(a, 4 + b) == (a != b)

    def test_cartesian_k2_k3_by_hand(self):
        # (i, j) ~ (i', j') iff same copy and j != j', or same j across copies
        g = cartesian_k2_complete(3)
        for a in range(3):
            for b in range(3):
                if a != b:
                    assert g.has_edge(a, b)
                    assert g.has_edge(3 + a, 3 + b)
                    assert not g.has_edge(a, 3 + b)
                else:
                    assert g.has_edge(a, 3 + b)

    def test_tightness_gadget_structure(self):
        g = tightness_gadget()
        assert g.n == 6 and g.m == 6
        degs = sorted(g.degree(v) for v in range(6))
        assert degs == [1, 1, 1, 3, 3, 3]

    def test_solids(self):
        assert is_d_regular(octahedron(), 4) and octahedron().n == 6
        ico = icosahedron()
        assert is_d_regular(ico, 5) and ico.n == 12 and ico.m == 30
        # Euler check for a planar triangulation: m = 3n - 6
        assert ico.m == 3 * ico.n - 6
        assert octahedron().m == 3 * 6 - 6


class TestGenFamily:
    def test_dispatch(self):
        assert gen_family("cycle", n=5) == cycle(5)
        assert gen_family("categorical-k2-complete", m=4) == categorical_k2_complete(4)

    def test_bad_name(self):
        with pytest.raises(BadParameterError):
            gen_family("moebius", n=5)

    def test_bad_params(self):
        with pytest.raises(BadParameterError):
            gen_family("cycle", m=5)
        with pytest.raises(BadParameterError):
            gen_family("cycle", n=2)
        with pytest.raises(BadParameterError):
            gen_family("wheel", n=3)

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan"), float("inf")])
    def test_random_graph_p_outside_0_1(self, p):
        with pytest.raises(BadParameterError):
            random_graph(5, p, seed=1)

    def test_random_graph_p_at_the_ends(self):
        assert random_graph(5, 0.0, seed=1).m == 0
        assert random_graph(5, 1.0, seed=1) == complete(5)


class TestRandomFamilies:
    @pytest.mark.parametrize("style", ["mixed", "bridged", "shared"])
    @pytest.mark.parametrize("seed", range(6))
    def test_cactus_is_cactus(self, seed, style):
        g = random_cactus(13, seed=seed, style=style)
        assert g.n == 13
        assert len(connected_components(g)) == 1
        assert block_cut_tree(g).is_cactus

    @pytest.mark.parametrize("seed", range(6))
    def test_block_graph_is_block_graph(self, seed):
        g = random_block_graph(13, seed=seed)
        assert g.n == 13
        assert len(connected_components(g)) == 1
        assert block_cut_tree(g).is_block_graph
        assert is_chordal(g)

    def test_deterministic(self):
        a = write_graph(random_cactus(30, seed=7))
        b = write_graph(random_cactus(30, seed=7))
        assert a == b
        assert write_graph(random_cactus(30, seed=8)) != a
