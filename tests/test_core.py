import copy
import dataclasses
import pickle
import random
import re
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergraph_spectra import (
    AdjacencyTensor,
    Bipartition,
    Hypergraph,
    SignlessLaplacianTensor,
    SimpleGraph,
    cycle_plus_pendant,
    generalized_power,
    is_connected,
    parse_hypergraph,
    power_iteration_rho,
    rho_bounds,
    serialize_hypergraph,
)
from hypergraph_spectra import core
from hypergraph_spectra.core import _increasing, canonical_edges

from helpers import canonical_edges_reference


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

    def test_an_edge_is_stored_once_in_either_orientation(self):
        assert SimpleGraph(3, ((2, 0),)).edges == SimpleGraph(3, ((0, 2),)).edges == ((0, 2),)

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
        with pytest.raises(ValueError, match="not a set of integer vertices"):
            make(((1, 2), (bad, 2)))

    def test_numpy_integers_stored_as_ints(self, make):
        g = make(((np.int64(2), np.int32(0)), (np.uint8(1), 2)))
        assert g.edges == ((0, 2), (1, 2))
        assert all(type(v) is int for e in g.edges for v in e)
        assert g == make(np.array([[2, 0], [1, 2]]))


class TestSizeTypes:
    @pytest.mark.parametrize("bad", [3.5, 3.0, "3", None])
    @pytest.mark.parametrize(
        "make",
        [
            lambda bad: Hypergraph(bad, 3),
            lambda bad: Hypergraph(2, bad, ((0, 1), (1, 2))),
            lambda bad: SimpleGraph(bad, ((0, 1), (1, 2))),
            lambda bad: dataclasses.replace(SimpleGraph(3), n=bad),
        ],
        ids=["Hypergraph-k", "Hypergraph-n", "SimpleGraph-n", "replace-n"],
    )
    def test_refuses_non_integer_size(self, make, bad):
        with pytest.raises(ValueError, match=re.escape(f"{bad!r}")):
            make(bad)

    def test_message_names_both_values(self):
        with pytest.raises(ValueError, match=r"k=2, n=3\.5"):
            Hypergraph(2, 3.5, ((0, 1), (1, 2), (2, 3)))

    @pytest.mark.parametrize("itype", [np.int64, np.int32, np.uint8])
    def test_numpy_integers_stored_as_ints(self, itype):
        h = Hypergraph(itype(4), itype(5), ((0, 1, 2, 3),))
        g = SimpleGraph(itype(3), ((0, 1),))
        assert (h.k, h.n, g.k, g.n) == (4, 5, 2, 3)
        assert all(type(v) is int for v in (h.k, h.n, g.k, g.n))
        assert h == Hypergraph(4, 5, ((0, 1, 2, 3),))

    @pytest.mark.parametrize(
        "edges",
        [((0, 1),), tuple((i, i + 1) for i in range(core._BULK_EDGES)), np.array([[0, 1]])],
        ids=["tuple", "bulk-tuple", "ndarray"],
    )
    def test_n_at_most_the_largest_array_index(self, edges):
        most = int(np.iinfo(np.intp).max)
        g = Hypergraph(2, most, edges)
        assert g.n == most and g.edge_array.tolist() == [list(e) for e in g.edges]
        for n in (most + 1, 2**70):
            with pytest.raises(ValueError, match=f"^n must be at most {most}, got {n}$"):
                Hypergraph(2, n, edges)


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


@st.composite
def uniform_unions(draw):
    """(k, n, edges): a k-uniform hypergraph on at most 40 vertices made of
    up to three random parts and up to three isolated vertices, relabelled
    by a random permutation, with its edges in random order."""
    k = draw(st.integers(2, 6))
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    n = sum(sizes) + draw(st.integers(0, 3))
    edges = set()
    start = 0
    for size in sizes:
        if size >= k:
            for _ in range(draw(st.integers(0, 2 * size))):
                part = st.integers(start, start + size - 1)
                edges.add(tuple(sorted(draw(st.lists(part, min_size=k, max_size=k, unique=True)))))
        start += size
    label = draw(st.permutations(range(n)))
    return k, n, draw(st.permutations([tuple(label[v] for v in e) for e in edges]))


def two_section(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for e in edges:
        g.add_edges_from((u, v) for i, u in enumerate(e) for v in e[i + 1 :])
    return g


@settings(max_examples=300, deadline=None, derandomize=True)
@given(uniform_unions())
def test_is_connected_agrees_with_networkx_on_the_two_section(case):
    k, n, edges = case
    expected = nx.is_connected(two_section(n, edges))
    rows = np.array(edges, dtype=np.int64).reshape(len(edges), k)
    assert is_connected(Hypergraph(k, n, tuple(edges))) == expected
    assert is_connected(Hypergraph(k, n, rows)) == expected


DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@st.composite
def edge_arrays(draw):
    """(rows, n): an (m, k) array of a random integer dtype whose rows are
    k vertices of 0..n-1 or more, unsorted, ascending or fully canonical,
    with some rows then given an out-of-range entry, a repeated vertex, or
    the set of an earlier row."""
    dtype = draw(st.sampled_from(DTYPES))
    info = np.iinfo(dtype)
    k = draw(st.integers(2, 6))
    n = draw(st.integers(1, 40))
    rows = [list(draw(st.permutations(range(max(n, k))))[:k]) for _ in range(draw(st.integers(0, 20)))]
    order = draw(st.sampled_from(["unsorted", "ascending", "canonical"]))
    if order != "unsorted":
        rows = [sorted(r) for r in rows]
    if order == "canonical":
        rows = [list(r) for r in sorted({tuple(r) for r in rows})]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        row, j = rows[i], draw(st.integers(0, k - 1))
        fault = draw(st.sampled_from(["range", "repeat", "duplicate"]))
        if fault == "range":
            above = st.integers(n, int(info.max))
            row[j] = draw(above | st.integers(int(info.min), -1) if info.min < 0 else above)
        elif fault == "repeat":
            row[j] = row[(j + draw(st.integers(1, k - 1))) % k]
        else:
            rows.insert(draw(st.integers(i + 1, len(rows))), draw(st.permutations(row)))
    return np.array(rows, dtype=dtype).reshape(len(rows), k), n


@settings(max_examples=500, deadline=None, derandomize=True)
@given(edge_arrays())
def test_canonical_edges_agrees_with_sorted_tuples_and_a_seen_set(case):
    rows, n = case
    before = rows.copy()
    canon, row = canonical_edges(rows, n)
    expected, expected_row = canonical_edges_reference(rows.tolist(), n)
    assert row == expected_row
    cast = rows.astype(np.intp)
    listed = cast.tolist()
    assert _increasing(cast.T) == all(a < b for a, b in zip(listed, listed[1:]))
    np.testing.assert_array_equal(rows, before)
    if row is None:
        assert canon.tolist() == [list(e) for e in expected]
        assert canon.dtype == np.intp and canon.T.flags.c_contiguous
        assert not np.shares_memory(canon, rows)
    else:
        assert canon is None


class TestEdgesOnDemand:
    """An array-built Hypergraph builds its edge tuples only when read."""

    @staticmethod
    def lift():
        h, _ = generalized_power(cycle_plus_pendant(9), 4, 2)
        return h

    @pytest.mark.parametrize("cls", [AdjacencyTensor, SignlessLaplacianTensor])
    def test_numeric_path_never_builds_edges(self, cls):
        h = parse_hypergraph(serialize_hypergraph(self.lift()))
        assert "edges" not in h.__dict__
        t = cls(h)
        assert power_iteration_rho(t, tol=1e-12).converged
        lo, hi = rho_bounds(t)
        assert (h.m, lo <= hi, is_connected(h)) == (self.lift().m, True, True)
        assert "edges" not in h.__dict__
        assert h.edges == self.lift().edges and "edges" in h.__dict__

    COPIERS = [
        lambda h: pickle.loads(pickle.dumps(h)),
        copy.copy,
        copy.deepcopy,
        dataclasses.replace,
        lambda h: dataclasses.replace(h, n=h.n),
    ]

    @pytest.mark.parametrize("copier", COPIERS, ids=["pickle", "copy", "deepcopy", "replace", "replace-n"])
    def test_copies_equal_the_tuple_built_hypergraph(self, copier):
        from_tuples = self.lift()
        h = copier(Hypergraph(from_tuples.k, from_tuples.n, from_tuples.edge_array[::-1].copy()))
        assert type(h) is Hypergraph
        assert h == from_tuples and from_tuples == h
        assert hash(h) == hash(from_tuples) and repr(h) == repr(from_tuples)
        np.testing.assert_array_equal(h.edge_array, from_tuples.edge_array)

    def test_fields_and_default_unchanged(self):
        assert [f.name for f in dataclasses.fields(Hypergraph)] == ["k", "n", "edges"]
        assert Hypergraph(3, 4).edges == () == Hypergraph(3, 4, np.empty((0, 3), dtype=int)).edges
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            Hypergraph(3, 4, np.empty((0, 3), dtype=int)).missing


class TestBipartition:
    def test_holds_both_sides(self):
        b = Bipartition(frozenset({0, 2}), frozenset({1}))
        assert 0 in b.part_one and 1 in b.part_two

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Bipartition(frozenset({0, 1}), frozenset({1, 2}))


@st.composite
def tuple_edge_lists(draw):
    """(k, n, edges): a tuple or list of about 64 edges as Python tuples or
    lists, valid as drawn, and then maybe given one fault or an entry of
    another type: a float, a bool, a numpy integer, an int past int64, a row
    of the wrong length, the set of another row (before or after it), a
    repeated vertex, or a vertex out of range."""
    k = draw(st.integers(2, 5))
    m = draw(st.sampled_from([63, 64, 65]) | st.integers(1, 130))
    n = draw(st.integers(25, 60) | st.just(2**62))
    rng = random.Random(draw(st.integers(0, 2**32)))
    sets: dict[frozenset[int], None] = {}
    while len(sets) < m:
        sets.setdefault(frozenset(rng.sample(range(min(n, 100)), k)))
    rows = [rng.sample(sorted(e), k) for e in sets]
    i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, k - 1))
    fault = draw(
        st.sampled_from(
            ["none", "float", "bool", "numpy", "int64+", "ragged", "duplicate", "repeat", "range"]
        )
    )
    if fault == "float":
        rows[i][j] = float(rows[i][j])
    elif fault == "bool":
        rows[i][j] = draw(st.booleans())
    elif fault == "numpy":
        rows[i][j] = draw(st.sampled_from([np.int64, np.int32, np.uint8, np.uint64]))(rows[i][j] % 256)
    elif fault == "int64+":
        rows[i][j] = draw(st.integers(2**63, 2**70))
    elif fault == "ragged":
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + [max(rows[i]) + 1]
    elif fault == "duplicate":
        rows.insert(draw(st.integers(0, m)), draw(st.permutations(rows[i])))
    elif fault == "repeat":
        rows[i][j] = rows[i][(j + 1) % k]
    elif fault == "range":
        rows[i][j] = draw(st.integers(-5, -1) | st.integers(n, n + 5))
    rows = [tuple(r) if draw(st.booleans()) else r for r in rows]
    return k, n, tuple(rows) if draw(st.booleans()) else rows


def built(k: int, n: int, edges, bulk_edges: int):
    """What Hypergraph(k, n, edges) gives with the bulk line at bulk_edges:
    its edges, edge array and the types in it, or the refusal's text."""
    with mock.patch.object(core, "_BULK_EDGES", bulk_edges):
        try:
            h = Hypergraph(k, n, edges)
        except ValueError as err:
            return str(err)
    arr = h.edge_array
    return h.edges, {type(v) for e in h.edges for v in e}, arr.tolist(), arr.dtype, arr.flags.f_contiguous


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tuple_edge_lists())
def test_both_sides_of_the_bulk_line_agree(case):
    # The loop alone (a line no list reaches), the array check wherever it
    # applies (a line of 1 edge), and the line as shipped give one outcome.
    k, n, edges = case
    loop = built(k, n, edges, 10**9)
    assert built(k, n, edges, 1) == loop
    assert built(k, n, edges, core._BULK_EDGES) == loop


def test_large_tuple_input_is_checked_in_bulk():
    edges = tuple((i, i + 1) for i in range(core._BULK_EDGES))
    assert "edge_array" in SimpleGraph(core._BULK_EDGES + 1, edges).__dict__
    assert "edge_array" not in SimpleGraph(core._BULK_EDGES + 1, edges[1:]).__dict__
