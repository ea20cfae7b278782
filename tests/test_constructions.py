import random
from unittest import mock

import pytest

from hypergraph_spectra import (
    MAX_VERTICES,
    Hypergraph,
    SimpleGraph,
    cycle_graph,
    cycle_plus_pendant,
    generalized_power,
    internal_path_edges,
    is_connected,
    s_cycle,
    s_path,
    subdivide,
    t_graph,
)

from hypergraph_spectra import constructions

from helpers import blowup_edges_reference, canonical_form, degrees, path_graph


class TestGeneralizedPower:
    def test_triangle_half_edge_lift(self):
        h, bmap = generalized_power(cycle_graph(3), 4, 2)
        assert h == Hypergraph(4, 6, ((0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5)))
        assert bmap.vertex_blocks == ((0, 1), (2, 3), (4, 5))
        assert bmap.edge_blocks == ((), (), ())
        assert bmap.half_edge_case

    def test_cored_lift_adds_fresh_vertices(self):
        h, bmap = generalized_power(cycle_graph(3), 4, 1)
        assert h == Hypergraph(
            4, 9, ((0, 1, 3, 4), (0, 2, 5, 6), (1, 2, 7, 8))
        )
        assert bmap.edge_blocks == ((3, 4), (5, 6), (7, 8))
        assert not bmap.half_edge_case

    @pytest.mark.parametrize("k, s", [(4, 1), (4, 2), (6, 1), (6, 2), (6, 3), (5, 2)])
    def test_vertex_count_formula(self, k, s):
        g = SimpleGraph(5, ((0, 1), (1, 2), (1, 3)))  # isolated vertex 4
        h, bmap = generalized_power(g, k, s)
        assert h.n == s * g.n + (k - 2 * s) * g.m == bmap.total_vertices

    def test_block_vertices_inherit_base_degree(self):
        g = cycle_plus_pendant(5)
        h, bmap = generalized_power(g, 6, 2)
        deg = degrees(h)
        for v, base_deg in enumerate(degrees(g)):
            for u in bmap.vertex_blocks[v]:
                assert deg[u] == base_deg
        for block in bmap.edge_blocks:
            for u in block:
                assert deg[u] == 1

    def test_base_graph_untouched(self):
        g = cycle_plus_pendant(5)
        generalized_power(g, 4, 2)
        assert g == cycle_plus_pendant(5)

    def test_connectivity_matches_base(self):
        h, _ = generalized_power(path_graph(3), 4, 2)
        assert is_connected(h)
        h2, _ = generalized_power(SimpleGraph(4, ((0, 1), (2, 3))), 4, 2)
        assert not is_connected(h2)

    @pytest.mark.parametrize("k, s", [(4, 0), (4, 3), (6, 4), (3, 2)])
    def test_rejects_bad_multiplicity(self, k, s):
        with pytest.raises(ValueError):
            generalized_power(cycle_graph(3), k, s)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            generalized_power(cycle_graph(3), 2, 1)

    @pytest.mark.parametrize("m", [0, 10, 63, 64, 65])
    @pytest.mark.parametrize("k, s", [(k, s) for k in range(3, 9) for s in range(1, k // 2 + 1)])
    def test_tuple_and_array_builds_agree(self, k, s, m):
        # A random base on 30 vertices, some of them isolated, built on
        # each side of the bulk line and on the side the line picks.
        rng = random.Random(f"{k} {s} {m}")
        pairs = [(u, v) for u in range(30) for v in range(u + 1, 30)]
        g = SimpleGraph(30, tuple(rng.sample(pairs, m)))
        builds = []
        for line in (10**9, 0, constructions._BULK_EDGES):
            with mock.patch.object(constructions, "_BULK_EDGES", line):
                h, bmap = generalized_power(g, k, s)
            builds.append((h.edges, h.edge_array.tolist(), h.n, bmap))
        assert builds[0] == builds[1] == builds[2]
        edges, _, n, bmap = builds[0]
        assert list(edges) == blowup_edges_reference(g, k, s)
        assert n == bmap.total_vertices == 30 * s + (k - 2 * s) * m
        assert bmap.vertex_blocks == tuple(tuple(range(v * s, v * s + s)) for v in range(30))
        extra = k - 2 * s
        assert bmap.edge_blocks == tuple(
            tuple(range(30 * s + i * extra, 30 * s + (i + 1) * extra)) for i in range(m)
        )


class TestSPath:
    def test_two_edge_example(self):
        assert s_path(4, 2, 2) == Hypergraph(4, 6, ((0, 1, 2, 3), (2, 3, 4, 5)))

    def test_single_edge(self):
        h = s_path(6, 3, 1)
        assert h.n == 6 and h.edges == ((0, 1, 2, 3, 4, 5),)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_counts_and_overlap(self, k, d):
        for s in range(1, k):
            h = s_path(k, s, d)
            assert h.n == s + d * (k - s)
            assert h.m == d
            for j in range(d - 1):
                shared = set(h.edges[j]) & set(h.edges[j + 1])
                assert len(shared) == s

    def test_half_edge_path_matches_blown_up_base_path(self):
        # consecutive blocks make the two constructions agree label for label
        for k in (4, 6):
            for d in (1, 2, 3):
                h, _ = generalized_power(path_graph(d + 1), k, k // 2)
                assert h == s_path(k, k // 2, d)

    def test_cored_path_matches_blown_up_base_path_up_to_degrees(self):
        h, _ = generalized_power(path_graph(4), 6, 2)
        p = s_path(6, 2, 3)
        assert (h.n, h.m) == (p.n, p.m)
        assert sorted(degrees(h)) == sorted(degrees(p))

    @pytest.mark.parametrize("k, s, d", [(4, 0, 1), (4, 4, 1), (4, 2, 0), (1, 1, 1)])
    def test_rejects_bad_parameters(self, k, s, d):
        with pytest.raises(ValueError):
            s_path(k, s, d)


class TestSCycle:
    def test_matches_blown_up_triangle(self):
        h, _ = generalized_power(cycle_graph(3), 4, 2)
        assert s_cycle(4, 2, 3) == h

    def test_tight_cycle_wraps(self):
        h = s_cycle(4, 3, 8)
        assert h.n == 8 and h.m == 8
        assert (0, 1, 2, 7) in h.edges  # wraparound edge, sorted

    def test_every_vertex_degree_k_over_step(self):
        h = s_cycle(6, 3, 4)
        assert degrees(h) == [2] * h.n

    def test_rejects_degenerate_lengths(self):
        with pytest.raises(ValueError):
            s_cycle(4, 2, 2)  # n == k: edges coincide
        with pytest.raises(ValueError):
            s_cycle(4, 3, 3)  # n < k
        with pytest.raises(ValueError):
            s_cycle(4, 2, 0)


class TestNamedGraphs:
    def test_cycle(self):
        assert cycle_graph(4).edges == ((0, 1), (0, 3), (1, 2), (2, 3))
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_cycle_plus_pendant_shape(self):
        g = cycle_plus_pendant(4)
        assert g.edges == ((0, 1), (1, 2), (1, 3), (2, 3))
        degs = sorted(len(a) for a in g.adjacency_lists())
        assert degs == [1, 2, 2, 3]
        with pytest.raises(ValueError):
            cycle_plus_pendant(3)

    def test_pendant_is_vertex_zero(self):
        for n in (4, 5, 8):
            g = cycle_plus_pendant(n)
            assert len(g.adjacency_lists()[0]) == 1
            assert len(g.adjacency_lists()[1]) == 3

    def test_t_graph_smallest_is_double_star(self):
        g = t_graph(6)
        assert sorted(len(a) for a in g.adjacency_lists()) == [1, 1, 1, 1, 3, 3]
        with pytest.raises(ValueError):
            t_graph(5)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_two_uniform_s_path_is_the_path_graph(self, n):
        p = s_path(2, 1, n - 1)
        assert (p.k, p.n, p.edges) == (2, n, tuple((i, i + 1) for i in range(n - 1)))

    def test_t_graph_is_a_spine_with_two_leaves_at_each_end(self):
        assert t_graph(7) == SimpleGraph(7, ((0, 1), (1, 2), (0, 3), (0, 4), (2, 5), (2, 6)))


class TestSubdivide:
    def test_path_grows(self):
        g = subdivide(path_graph(3), 1, 2)
        assert canonical_form(g) == canonical_form(path_graph(4))
        assert g.n == 4

    def test_cycle_edge_of_paw(self):
        g = subdivide(cycle_plus_pendant(4), 2, 3)
        assert canonical_form(g) == canonical_form(cycle_plus_pendant(5))

    def test_orientation_irrelevant(self):
        assert subdivide(path_graph(3), 2, 1) == subdivide(path_graph(3), 1, 2)

    def test_original_edge_removed(self):
        g = subdivide(path_graph(3), 1, 2)
        assert (1, 2) not in g.edges
        assert (1, 3) in g.edges and (2, 3) in g.edges

    def test_missing_edge_raises(self):
        with pytest.raises(ValueError):
            subdivide(path_graph(3), 0, 2)

    def test_out_of_range_vertex_raises(self):
        with pytest.raises(ValueError):
            subdivide(path_graph(3), 2, 3)
        with pytest.raises(ValueError):
            subdivide(path_graph(3), -1, 0)

    def test_original_untouched(self):
        g = path_graph(3)
        subdivide(g, 0, 1)
        assert g == path_graph(3)

    def test_returns_a_simple_graph(self):
        assert isinstance(subdivide(cycle_graph(4), 0, 1), SimpleGraph)

    def test_refuses_more_vertices_than_a_file_may_declare(self):
        # The result could be written but not read back.
        with pytest.raises(ValueError, match=f"{MAX_VERTICES + 1} vertices exceed the limit"):
            subdivide(SimpleGraph(MAX_VERTICES, ((0, 1),)), 0, 1)


class TestInternalPathEdges:
    def test_pendant_cycle(self):
        g = cycle_plus_pendant(5)
        assert internal_path_edges(g) == frozenset(
            {(1, 2), (1, 4), (2, 3), (3, 4)}
        )

    def test_bare_path_and_cycle_have_none(self):
        assert internal_path_edges(path_graph(5)) == frozenset()
        assert internal_path_edges(cycle_graph(5)) == frozenset()

    def test_double_star_bridge(self):
        assert internal_path_edges(t_graph(6)) == frozenset({(0, 1)})

    def test_t_graph_core_path(self):
        assert internal_path_edges(t_graph(8)) == frozenset(
            {(0, 1), (1, 2), (2, 3)}
        )

    def test_theta_graph_all_internal(self):
        g = SimpleGraph(4, ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3)))
        assert internal_path_edges(g) == frozenset(g.edges)

    def test_requires_connected(self):
        with pytest.raises(ValueError):
            internal_path_edges(SimpleGraph(4, ((0, 1), (2, 3))))


@pytest.mark.parametrize(
    "build",
    [lambda h: generalized_power(h, 4, 2), internal_path_edges, lambda h: subdivide(h, 0, 1)],
    ids=["generalized_power", "internal_path_edges", "subdivide"],
)
def test_hypergraphs_other_than_graphs_refused(build):
    with pytest.raises(ValueError, match="k = 3"):
        build(Hypergraph(3, 4, ((0, 1, 2), (1, 2, 3))))
