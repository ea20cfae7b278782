import copy
import dataclasses
import pickle
import random
import re

import numpy as np
import pytest

from hypergraph_spectra import (
    Bipartition,
    Hypergraph,
    SimpleGraph,
    degree,
    is_connected,
    remove_edge,
    s_cycle,
)


class TestSimpleGraph:
    def test_edges_are_canonicalized(self):
        g = SimpleGraph(4, ((3, 1), (0, 2), (2, 1)))
        assert g.edges == ((0, 2), (1, 2), (1, 3))

    def test_equal_regardless_of_input_order(self):
        a = SimpleGraph(3, ((1, 0), (2, 1)))
        b = SimpleGraph(3, ((1, 2), (0, 1)))
        assert a == b

    def test_edge_and_vertex_counts(self):
        g = SimpleGraph(5, ((0, 1), (1, 2), (2, 3)))
        assert (g.n, g.m) == (5, 3)

    def test_has_edge_both_orientations(self):
        g = SimpleGraph(3, ((0, 2),))
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert not g.has_edge(0, 1)

    def test_adjacency_lists(self):
        g = SimpleGraph(4, ((0, 1), (0, 2), (2, 3)))
        assert g.adjacency_lists() == [[1, 2], [0], [0, 3], [2]]

    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            SimpleGraph(3, ((1, 1),))

    def test_rejects_duplicate_even_reversed(self):
        with pytest.raises(ValueError):
            SimpleGraph(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SimpleGraph(3, ((0, 3),))
        with pytest.raises(ValueError):
            SimpleGraph(3, ((-1, 0),))

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(ValueError):
            SimpleGraph(0, ())

    def test_refusal_names_the_edge(self):
        with pytest.raises(ValueError, match=re.escape("edge (1, 1) is not a set of 2 distinct vertices")):
            SimpleGraph(3, ((1, 1),))

    def test_isolated_vertices_allowed(self):
        g = SimpleGraph(4, ((0, 1),))
        assert g.n == 4 and g.m == 1

    def test_is_a_two_uniform_hypergraph(self):
        g = SimpleGraph(4, ((3, 1), (0, 2), (2, 1)))
        assert g.k == SimpleGraph.k == 2
        assert isinstance(g, Hypergraph)
        assert [f.name for f in dataclasses.fields(SimpleGraph)] == ["k", "n", "edges"]
        assert g.edge_array.tolist() == [[0, 2], [1, 2], [1, 3]]
        assert g.edge_array.dtype == np.intp
        np.testing.assert_array_equal(g.edge_array, Hypergraph(2, 4, g.edges).edge_array)
        with pytest.raises(ValueError):
            g.edge_array[0, 0] = 1
        assert SimpleGraph(3).edge_array.shape == (0, 2)

    def test_replace(self):
        g = SimpleGraph(3, ((0, 1),))
        assert dataclasses.replace(g, n=4) == SimpleGraph(4, ((0, 1),))
        with pytest.raises(ValueError):
            dataclasses.replace(g, k=3)


@pytest.mark.parametrize(
    "make", [lambda e: Hypergraph(2, 3, e), lambda e: SimpleGraph(3, e)], ids=["Hypergraph", "SimpleGraph"]
)
class TestVertexTypes:
    @pytest.mark.parametrize("bad", [0.5, 1.0, "1", None])
    def test_refuses_non_integer_vertex(self, make, bad):
        with pytest.raises(ValueError, match="not a set of integer vertices") as info:
            make(((1, 2), (bad, 2)))
        assert info.value.row == 1

    def test_numpy_integers_stored_as_ints(self, make):
        g = make(((np.int64(2), np.int32(0)), (np.uint8(1), 2)))
        assert g.edges == ((0, 2), (1, 2))
        assert all(type(v) is int for e in g.edges for v in e)
        assert g == make(np.array([[2, 0], [1, 2]]))


class TestHypergraph:
    def test_edges_sorted_inside_and_across(self):
        h = Hypergraph(3, 5, ((4, 2, 0), (3, 1, 0)))
        assert h.edges == ((0, 1, 3), (0, 2, 4))

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            Hypergraph(3, 5, ((0, 1),))

    def test_rejects_repeated_vertex_in_edge(self):
        with pytest.raises(ValueError):
            Hypergraph(3, 5, ((0, 1, 1),))

    def test_rejects_duplicate_edge_after_sorting(self):
        with pytest.raises(ValueError):
            Hypergraph(3, 5, ((0, 1, 2), (2, 1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Hypergraph(3, 3, ((0, 1, 3),))

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            Hypergraph(1, 3, ())

    def test_graphs_are_rank_two_hypergraphs(self):
        h = Hypergraph(2, 3, ((0, 1), (1, 2)))
        assert h.k == 2 and h.m == 2


class TestHypergraphFromArray:
    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
    def test_same_hypergraph_as_from_tuples(self, dtype):
        rng = random.Random(7)
        for k in (2, 3, 5):
            for _ in range(20):
                n = rng.randrange(k, 12)
                rows = {tuple(rng.sample(range(n), k)) for _ in range(rng.randrange(0, 15))}
                rows = list({tuple(sorted(r)): r for r in rows}.values())  # distinct as sets
                from_tuples = Hypergraph(k, n, tuple(rows))
                from_array = Hypergraph(k, n, np.array(rows, dtype=dtype).reshape(len(rows), k))
                assert from_array == from_tuples
                assert hash(from_array) == hash(from_tuples)
                assert repr(from_array) == repr(from_tuples)
                assert all(type(v) is int for e in from_array.edges for v in e)
                np.testing.assert_array_equal(from_array.edge_array, from_tuples.edge_array)
                assert from_array.edge_array.dtype == np.intp

    def test_edge_array_is_canonical_and_read_only(self):
        h = Hypergraph(3, 5, np.array([[4, 2, 0], [3, 1, 0]]))
        assert h.edges == ((0, 1, 3), (0, 2, 4))
        assert h.edge_array.tolist() == [[0, 1, 3], [0, 2, 4]]
        with pytest.raises(ValueError):
            h.edge_array[0, 0] = 1
        with pytest.raises(ValueError):
            Hypergraph(3, 5, ((0, 1, 2),)).edge_array[0, 0] = 1

    def test_no_edges(self):
        h = Hypergraph(4, 1, np.empty((0, 4), dtype=np.int64))
        assert h == Hypergraph(4, 1) and h.edge_array.shape == (0, 4)

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 1, 2], [2, 1, 0]],
            [[0, 1, 1]],
            [[0, 1, 5]],
            [[-1, 0, 1]],
            [[0, 1, 2], [1, 2, 3], [0, 5, 5]],
            [[0, 1, 2], [1, 2, 3], [3, 2, 1], [0, 1, 9]],
            [[0, 1, 9], [0, 1, 2], [2, 1, 0]],
        ],
    )
    def test_refusals_read_as_for_tuples(self, rows):
        with pytest.raises(ValueError) as from_tuples:
            Hypergraph(3, 5, tuple(map(tuple, rows)))
        with pytest.raises(ValueError, match="^" + re.escape(str(from_tuples.value)) + "$"):
            Hypergraph(3, 5, np.array(rows))

    def test_out_of_range_unsigned_values_refused(self):
        with pytest.raises(ValueError, match="out of range"):
            Hypergraph(2, 3, np.array([[0, 2**64 - 1]], dtype=np.uint64))

    @pytest.mark.parametrize(
        "rows", [np.zeros((2, 2), dtype=np.int64), np.zeros(3, dtype=np.int64), np.zeros((1, 3))]
    )
    def test_wrong_shape_or_dtype_refused(self, rows):
        with pytest.raises(ValueError, match="edge array"):
            Hypergraph(3, 5, rows)


class TestCopies:
    COPIERS = [
        lambda h: pickle.loads(pickle.dumps(h)),
        copy.deepcopy,
        copy.copy,
    ]
    CONTAINERS = [
        lambda: SimpleGraph(4, ((3, 1), (0, 2), (2, 1))),
        lambda: SimpleGraph(4, np.array([[3, 1], [0, 2], [2, 1]])),
        lambda: Hypergraph(3, 5, ((4, 2, 0), (3, 1, 0))),
        lambda: Hypergraph(3, 5, np.array([[4, 2, 0], [3, 1, 0]])),
    ]

    @pytest.mark.parametrize("copier", COPIERS, ids=["pickle", "deepcopy", "copy"])
    @pytest.mark.parametrize("build", CONTAINERS, ids=["graph", "graph-array", "hyper", "hyper-array"])
    def test_copy_has_an_equal_read_only_edge_array(self, copier, build):
        h = build()
        h.edge_array  # cached before copying
        h2 = copier(h)
        assert type(h2) is type(h) and h2 == h and hash(h2) == hash(h)
        np.testing.assert_array_equal(h2.edge_array, h.edge_array)
        with pytest.raises(ValueError):
            h2.edge_array[0, 0] = 3
        assert is_connected(h2) == is_connected(h)


class TestDegree:
    def test_counts_incidences(self):
        h = Hypergraph(3, 4, ((0, 1, 2), (0, 1, 3)))
        assert [degree(h, v) for v in range(4)] == [2, 2, 1, 1]

    def test_handshake_identity(self):
        # sum of degrees is k times the edge count
        h = s_cycle(6, 3, 4)
        assert sum(degree(h, v) for v in range(h.n)) == h.k * h.m

    def test_out_of_range_raises(self):
        h = Hypergraph(3, 3, ((0, 1, 2),))
        with pytest.raises(IndexError):
            degree(h, 3)
        with pytest.raises(IndexError):
            degree(h, -1)


class TestConnectivity:
    def test_single_vertex_connected(self):
        assert is_connected(Hypergraph(3, 1, ()))
        assert is_connected(SimpleGraph(1, ()))

    def test_edgeless_two_vertices_disconnected(self):
        assert not is_connected(SimpleGraph(2, ()))

    def test_isolated_vertex_breaks_connectivity(self):
        assert not is_connected(SimpleGraph(3, ((0, 1),)))

    def test_path_connected(self):
        assert is_connected(SimpleGraph(4, ((0, 1), (1, 2), (2, 3))))

    def test_two_components(self):
        h = Hypergraph(3, 6, ((0, 1, 2), (3, 4, 5)))
        assert not is_connected(h)

    def test_overlapping_edges_connected(self):
        h = Hypergraph(4, 6, ((0, 1, 2, 3), (2, 3, 4, 5)))
        assert is_connected(h)


class TestRemoveEdge:
    def test_drops_edge_keeps_vertices(self):
        h = s_cycle(4, 2, 3)
        h2 = remove_edge(h, 0)
        assert h2.n == h.n and h2.m == h.m - 1
        assert h2.edges == h.edges[1:]

    def test_original_untouched(self):
        g = SimpleGraph(3, ((0, 1), (1, 2)))
        remove_edge(g, 1)
        assert g.m == 2

    def test_preserves_type(self):
        g = SimpleGraph(3, ((0, 1), (1, 2)))
        assert isinstance(remove_edge(g, 0), SimpleGraph)

    def test_index_out_of_range(self):
        g = SimpleGraph(3, ((0, 1),))
        with pytest.raises(IndexError):
            remove_edge(g, 1)
        with pytest.raises(IndexError):
            remove_edge(g, -1)


class TestBipartition:
    def test_holds_both_sides(self):
        b = Bipartition(frozenset({0, 2}), frozenset({1}))
        assert 0 in b.part_one and 1 in b.part_two

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Bipartition(frozenset({0, 1}), frozenset({1, 2}))
