import random
from collections import Counter

from hypothesis import given, settings, strategies as st
import pytest

from exactcolor import (
    DisconnectedClassError,
    NotAPartitionError,
    OutOfRangeError,
    SelfLoopError,
    block_cut_tree,
    build_graph,
    cactus_chi1,
    complete,
    connected_components,
    contract_partition,
    cycle,
    is_chordal,
    path,
    perfect_matchings,
    petersen,
    random_cactus,
    recognize,
    tightness_gadget,
)
from exactcolor.graphs import block_factor, is_tree
from conftest import perfect_matchings_filter, permuted, planted_cactus, relabeled_union


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return build_graph(n, edges)


def block_edges(g, verts):
    """The edges of g with both ends in verts: a block's edges, when verts is a block."""
    inside = set(verts)
    return [(u, v) for u, v in g.edges() if u in inside and v in inside]


def cut_vertices(bct):
    """The vertices lying in two or more blocks."""
    membership = Counter(v for verts in bct.blocks for v in verts)
    return {v for v, count in membership.items() if count >= 2}


def reference_adjacency(n, edges):
    """Sorted neighbor tuples from one set per vertex: what build_graph must return."""
    nbr = [set() for _ in range(n)]
    for u, v in edges:
        nbr[u].add(v)
        nbr[v].add(u)
    return tuple(tuple(sorted(a)) for a in nbr)


def edge_list(rng, kind):
    """(n, edges) of one kind: build_graph's fast path takes the sorted ones."""
    n = rng.choice([0, 1, 2, rng.randint(3, 30)])
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(rng.sample(pairs, rng.randint(0, len(pairs)))) if rng.random() < 0.9 else []
    if kind == "shuffled":
        rng.shuffle(edges)
    elif kind == "one swap" and len(edges) > 1:  # sorted but for two neighbors
        i = rng.randrange(len(edges) - 1)
        edges[i], edges[i + 1] = edges[i + 1], edges[i]
    elif kind == "flipped":
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    elif kind == "duplicates":
        for u, v in rng.sample(edges, len(edges) // 3):
            edges.insert(rng.randrange(len(edges) + 1), (v, u) if rng.random() < 0.5 else (u, v))
    elif kind == "adjacent duplicates":  # sorted but not strictly increasing
        edges = sorted(edges + edges[: len(edges) // 2])
    elif kind == "isolated":  # the pairs avoid some vertices
        extra = rng.randint(1, 5)
        keep = sorted(rng.sample(range(n + extra), n))
        n += extra
        edges = [(keep[u], keep[v]) for u, v in edges]
    return n, edges


class TestBuildGraph:
    KINDS = ("sorted", "shuffled", "one swap", "flipped", "duplicates",
             "adjacent duplicates", "isolated")

    def test_matches_a_set_based_reference(self):
        rng = random.Random(18)
        seen = Counter()
        for i in range(1400):
            kind = self.KINDS[i % len(self.KINDS)]
            n, edges = edge_list(rng, kind)
            g = build_graph(n, edges)
            assert g.n == n and g.adj == reference_adjacency(n, edges), (kind, n, edges)
            assert g.m == len({frozenset(e) for e in edges})
            seen[kind] += 1
            seen["n = 0"] += n == 0
            seen["m = 0"] += not edges
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize("edges, error, message", [
        ([(0, 1), (1, 2), (2, 4)], OutOfRangeError, "edge (2, 4) has an endpoint outside [0, 4)"),
        ([(0, 1), (1, 2), (-1, 3)], OutOfRangeError, "edge (-1, 3) has an endpoint outside [0, 4)"),
        ([(0, 1), (1, 2), (4, 2)], OutOfRangeError, "edge (4, 2) has an endpoint outside [0, 4)"),
        ([(0, 1), (1, 2), (3, 3)], SelfLoopError, "self-loop at vertex 3"),
    ])
    def test_a_bad_last_edge_after_sorted_ones(self, edges, error, message):
        with pytest.raises(error) as info:
            build_graph(4, edges)
        assert str(info.value) == message

    def test_triangle(self):
        g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
        assert g.min_degree() == g.max_degree() == 2
        assert g.m == 3

    def test_duplicate_edges_collapse(self):
        g = build_graph(2, [(0, 1), (1, 0)])
        assert g.m == 1

    def test_isolated_vertex(self):
        g = build_graph(1, [])
        assert g.min_degree() == g.max_degree() == 0

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            build_graph(2, [(0, 2)])

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_graph(3, [(1, 1)])

    @given(graphs())
    @settings(max_examples=60)
    def test_adjacency_symmetric_sorted(self, g):
        for v in range(g.n):
            assert list(g.adj[v]) == sorted(set(g.adj[v]))
            for u in g.adj[v]:
                assert v in g.adj[u]
                assert u != v


class TestBlockCutTree:
    def test_bowtie(self, bowtie):
        bct = block_cut_tree(bowtie)
        assert len(bct.blocks) == 2
        assert all(len(block_edges(bowtie, b)) == len(b) == 3 for b in bct.blocks)
        assert cut_vertices(bct) == {2}

    def test_path4(self):
        bct = block_cut_tree(path(4))
        assert len(bct.blocks) == 3
        assert all(len(b) == 2 for b in bct.blocks)
        assert cut_vertices(bct) == {1, 2}

    def test_petersen_single_block(self):
        bct = block_cut_tree(petersen())
        assert len(bct.blocks) == 1 and len(bct.blocks[0]) == 10
        assert not cut_vertices(bct)
        assert not (bct.is_cactus or bct.is_block_graph)

    def test_triangle_is_cycle_and_clique(self):
        bct = block_cut_tree(complete(3))
        assert len(bct.blocks) == 1 and len(bct.blocks[0]) == 3
        assert bct.is_cactus and bct.is_block_graph

    @given(graphs())
    @settings(max_examples=60)
    def test_edges_partition_into_blocks(self, g):
        bct = block_cut_tree(g)
        seen = set()
        for verts in bct.blocks:
            edges = block_edges(g, verts)
            for e in edges:
                assert e not in seen
                seen.add(e)
        assert seen == set(g.edges())

    @given(st.sampled_from(["mixed", "bridged", "shared", "petaled"]),
           st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=80)
    def test_cycle_blocks_are_listed_in_cyclic_order(self, style, n, seed):
        # relabeled, so that the DFS meets cycles at any vertex and in either direction
        label = list(range(n))
        random.Random(seed).shuffle(label)
        g = build_graph(n, [(label[u], label[v]) for u, v in random_cactus(n, seed, style).edges()])
        bct = block_cut_tree(g)
        dist = bfs_distances(g, 0)
        for verts in bct.blocks:
            # every ring starts at its entry vertex, the one nearest the root
            assert all(dist[verts[0]] < dist[w] for w in verts[1:])
            if len(verts) == 2:
                continue
            # a closed walk over exactly the block's edges, from the entry vertex
            walk = {frozenset(p) for p in zip(verts, verts[1:] + verts[:1])}
            assert len(walk) == len(verts) == len(set(verts))
            assert walk == {frozenset(e) for e in block_edges(g, verts)}

    @given(graphs())
    @settings(max_examples=60)
    def test_cut_vertices_lie_in_two_blocks(self, g):
        # a cut vertex is one whose removal leaves more components
        cuts = cut_vertices(block_cut_tree(g))
        parts = len(connected_components(g))
        for v in range(g.n):
            rest = build_graph(g.n, [e for e in g.edges() if v not in e])
            assert (len(connected_components(rest)) - 1 > parts) == (v in cuts)


def bfs_distances(g, root):
    """Edge distance from root to every vertex of its component."""
    dist = {root: 0}
    queue = [root]
    for u in queue:
        for w in g.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def test_component_orders_are_the_component_sizes():
    rng = random.Random(21)
    for case in range(1200):
        n = case % 16  # n = 0 included
        p = rng.uniform(0.0, 0.4)  # sparse, so most graphs have several components
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        assert list(block_cut_tree(g).component_orders) == [len(c) for c in connected_components(g)]


def test_components_come_off_the_sweep():
    # connected_components, the breadth-first search, is the reference
    rng = random.Random(22)

    def sparse(n):
        p = rng.uniform(0.0, 0.4)
        return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])

    members = (lambda: build_graph(1, []), lambda: cycle(rng.randint(3, 7)),
               lambda: complete(rng.randint(2, 5)), lambda: sparse(rng.randint(1, 9)),
               lambda: random_cactus(rng.randint(3, 12), seed=rng.randrange(10**6)))
    for case in range(1200):
        if case % 2:  # interleaved components, isolated vertices among them
            g = relabeled_union([rng.choice(members)() for _ in range(rng.randint(1, 3))], rng)
        else:
            g = sparse(case % 16)  # n = 0 included
        bct = block_cut_tree(g)
        comps = bct.components()
        assert [sorted(verts) for verts, _ in comps] == connected_components(g)
        for verts, big in comps:
            inside = set(verts)
            assert big == max((len(b) for b in bct.blocks if b[0] in inside), default=1)


@pytest.mark.parametrize("seed", range(10))
def test_cycle_order_is_the_ring_of_the_one_block(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 40)
    perm = rng.sample(range(n), n)
    g = build_graph(n, [(perm[i], perm[i - 1]) for i in range(n)])
    order = list(g.bct.blocks[0])
    assert sorted(order) == list(range(n))
    assert all(g.has_edge(order[i - 1], order[i]) for i in range(n))
    assert order[:2] == [0, min(g.adj[0])]  # from 0 toward its smaller neighbor
    # the rim of a wheel is walked the same way, whichever vertex is the hub
    for hub in (0, n):
        rim = [v + (hub == 0) for v in order]
        w = build_graph(n + 1, [(rim[i - 1], rim[i]) for i in range(n)] + [(hub, v) for v in rim])
        assert recognize(w).wheel_order == rim + [hub]


class TestBlockSweep:
    @given(graphs(max_n=12))
    @settings(max_examples=80)
    def test_rings_cover_every_block_once_leaves_last(self, g):
        bct = block_cut_tree(g)
        sweep = bct.sweep
        # the 1-rings are exactly the roots, and the blocks are the other rings
        roots = [ring[0] for ring in sweep if len(ring) == 1]
        assert roots == [comp[0] for comp in connected_components(g)]
        assert bct.blocks == tuple(ring for ring in sweep if len(ring) >= 2)
        # every vertex but a root is a non-entry vertex of exactly one ring
        non_entry = sorted(v for ring in sweep for v in ring[1:])
        assert non_entry == sorted(set(range(g.n)) - set(roots))
        reached = set()
        for ring in reversed(sweep):
            if len(ring) > 1:
                assert ring[0] in reached  # entered from a vertex the reversed sweep has reached
            reached.update(ring)

    @given(graphs(max_n=12))
    @settings(max_examples=80)
    def test_sweep_runs_leaves_first(self, g):
        # a ring entered at w comes before the ring that has w as a non-entry
        # vertex, or before w's own root entry when w is a root
        sweep = block_cut_tree(g).sweep
        home = {}
        for pos, ring in enumerate(sweep):
            for w in ring if len(ring) == 1 else ring[1:]:
                home[w] = pos
        assert sorted(home) == list(range(g.n))
        for pos, ring in enumerate(sweep):
            if len(ring) > 1:
                assert pos < home[ring[0]]


class TestBlockFactor:
    def test_odd_arc_fails(self):
        # C6 with pendants on 1 and 3: the cycle must cover 0, 2, 4 and 5, an even
        # count, but 2 sits alone between 1 and 3, so no perfect matching exists
        g = build_graph(8, [(i, (i + 1) % 6) for i in range(6)] + [(1, 6), (3, 7)])
        sweep = block_cut_tree(g).sweep
        assert block_factor(g.n, sweep, 2, cyclic=True) is None
        # the count rule alone accepts it, with a pair that is no edge
        classes = block_factor(g.n, sweep, 2)
        assert classes is not None and not all(g.has_edge(u, v) for u, v in classes)
        assert perfect_matchings(g) == [] and cactus_chi1(g).is_infeasible

    def test_cactus_pairs_are_edges_whatever_the_numbering(self):
        # the sweep meets each cycle at any vertex and in either direction
        found = 0
        for seed in range(200):
            g = random_cactus(20 + seed % 60, seed, ["mixed", "bridged", "shared", "petaled"][seed % 4])
            perm = list(range(g.n))
            random.Random(seed).shuffle(perm)
            g = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            pairs = block_factor(g.n, block_cut_tree(g).sweep, 2, cyclic=True)
            if pairs is not None:
                found += 1
                assert sorted(v for p in pairs for v in p) == list(range(g.n))
                assert all(g.has_edge(u, v) for u, v in pairs)
        assert found >= 10

    def test_cycle_pairs_follow_the_ring(self):
        g = cycle(6)
        sweep = block_cut_tree(g).sweep
        assert block_factor(g.n, sweep, 2, cyclic=True) == [(0, 1), (2, 3), (4, 5)]
        # the C4 0-2-1-3 pairs along the cycle, not in sorted runs (0, 1), (2, 3)
        c4 = build_graph(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
        assert block_factor(4, block_cut_tree(c4).sweep, 2, cyclic=True) == [(0, 2), (1, 3)]
        assert block_factor(g.n, sweep[-1:], 2) is None  # a root no block took

    def test_cycle_classes_are_the_planted_factor(self):
        # at r = 3 a cactus cycle is one class or covers nothing, so the pass
        # finds the one cycle factor, whatever the numbering, and no perturbed
        # cactus has one
        for seed in range(240):
            n = 5 + seed % 76
            g, factor = planted_cactus(n, seed)
            if seed % 2:
                perm = list(range(g.n))
                random.Random(seed).shuffle(perm)
                g = permuted(g, perm)
                factor = [frozenset(perm[v] for v in c) for c in factor]
            classes = block_factor(g.n, block_cut_tree(g).sweep, 3, cyclic=True)
            assert sorted(map(sorted, classes)) == sorted(map(sorted, factor)), seed
            for perturb in ("pendant", "triangle", "bare", "p_only"):
                h, _ = planted_cactus(n, seed, perturb)
                assert block_factor(h.n, block_cut_tree(h).sweep, 3, cyclic=True) is None

    @pytest.mark.parametrize("r", [4, 5, 6])
    def test_a_cycle_holds_no_larger_class(self, r):
        # a cactus cycle holds no connected (r - 1)-regular piece for r >= 4
        for g in (cycle(5), cycle(6), cycle(3)):
            assert block_factor(g.n, block_cut_tree(g).sweep, r, cyclic=True) is None

    @pytest.mark.parametrize("edges, stop", [
        ([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)], (0, 1, 2)),  # bowtie: 2 is taken
        ([(0, 1), (1, 2), (2, 0), (0, 3)], (0, 3)),  # triangle with pendant: 3 stays free
    ], ids=["bowtie", "triangle_with_pendant"])
    def test_pass_reads_no_further_than_the_ring_it_fails_at(self, edges, stop):
        g = build_graph(1 + max(map(max, edges)), edges)
        sweep = block_cut_tree(g).sweep
        rest = iter(sweep)
        assert block_factor(g.n, rest, 3, cyclic=True) is None
        unread = list(rest)
        assert sweep[len(sweep) - len(unread) - 1] == stop
        assert unread == [(0,)]  # only the root's 1-ring is left


class TestRecognize:
    def test_cycle6(self):
        c = recognize(cycle(6))
        assert c.is_cactus and not is_chordal(cycle(6)) and c.regular_degree == 2

    def test_complete5(self):
        c = recognize(complete(5))
        assert c.is_block_graph and is_chordal(complete(5))

    def test_tightness_gadget(self):
        c = recognize(tightness_gadget())
        assert c.is_cactus and not is_tree(tightness_gadget())

    def test_tree(self):
        c = recognize(path(5))
        assert is_tree(path(5)) and c.is_cactus and c.is_block_graph

    def test_chordal_known_cases(self):
        assert is_chordal(complete(4))
        assert not is_chordal(cycle(4))
        assert not is_chordal(petersen())


class TestPerfectMatchings:
    def test_cycle4_has_two(self):
        assert len(perfect_matchings(cycle(4))) == 2

    def test_odd_cycle_has_none(self):
        assert perfect_matchings(cycle(5)) == []

    def test_petersen_has_six(self):
        assert len(perfect_matchings(petersen())) == 6

    def test_truncation_is_prefix(self):
        full = perfect_matchings(complete(6))
        assert perfect_matchings(complete(6), limit=3) == full[:3]

    @pytest.mark.parametrize(
        "g", [cycle(4), cycle(6), cycle(8), complete(4), complete(6), petersen(),
              path(6), tightness_gadget()],
        ids=["C4", "C6", "C8", "K4", "K6", "petersen", "P6", "gadget"],
    )
    def test_agrees_with_subset_filter(self, g):
        got = {frozenset(m.edges) for m in perfect_matchings(g)}
        assert got == perfect_matchings_filter(g)

    def test_matching_invariants(self):
        for m in perfect_matchings(petersen()):
            verts = [v for e in m.edges for v in e]
            assert len(verts) == len(set(verts)) == 10
            assert m.perfect


class TestContractPartition:
    def test_c4_matching_gives_k2(self):
        q = contract_partition(cycle(4), [[0, 1], [2, 3]])
        assert q == complete(2)

    def test_singletons_identity(self):
        g = petersen()
        assert contract_partition(g, [[v] for v in range(g.n)]) == g

    def test_gadget_matching_gives_k3(self):
        q = contract_partition(tightness_gadget(), [[0, 3], [1, 4], [2, 5]])
        assert q == complete(3)

    def test_not_a_partition(self):
        with pytest.raises(NotAPartitionError):
            contract_partition(cycle(4), [[0, 1], [1, 2, 3]])
        with pytest.raises(NotAPartitionError):
            contract_partition(cycle(4), [[0, 1]])
        with pytest.raises(NotAPartitionError):
            contract_partition(cycle(4), [[0, 1], [2, 3], []])
        with pytest.raises(NotAPartitionError):
            contract_partition(cycle(4), [[0, 1], [2, 3, 4]])
        with pytest.raises(NotAPartitionError):
            contract_partition(cycle(4), [[0, 1], [2, 3, 3]])

    def test_disconnected_class(self):
        with pytest.raises(DisconnectedClassError):
            contract_partition(cycle(4), [[0, 2], [1, 3]])

    @given(graphs(max_n=8))
    @settings(max_examples=40)
    def test_class_count_becomes_vertex_count(self, g):
        # contract each connected component to one vertex
        from exactcolor import connected_components

        comps = connected_components(g)
        if not comps:
            return
        q = contract_partition(g, comps)
        assert q.n == len(comps)
        assert q.m == 0  # components have no cross edges

    def test_quotient_simple_and_loopless(self, bowtie):
        q = contract_partition(bowtie, [[0, 1], [2], [3, 4]])
        for v in range(q.n):
            assert v not in q.adj[v]
            assert len(q.adj[v]) == len(set(q.adj[v]))
