import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergraph_spectra import (
    SimpleGraph,
    canonical_code,
    canonical_form,
    enumerate_connected_graphs,
    enumerate_connected_nonbipartite,
    graph_code,
    graph_from_code,
    is_bipartite,
    is_connected,
)
from hypergraph_spectra.enumeration import _connected_class_codes

from helpers import scan_connected_class_codes

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def atlas_connected(n: int) -> list[SimpleGraph]:
    out = []
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() == n and n > 0 and nx.is_connected(g):
            relabel = {v: i for i, v in enumerate(sorted(g.nodes()))}
            edges = tuple((relabel[u], relabel[v]) for u, v in g.edges())
            out.append(SimpleGraph(n, edges))
    return out


def shuffled(g: SimpleGraph, rng: random.Random) -> SimpleGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return SimpleGraph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))


class TestCodes:
    def test_round_trip(self):
        rng = random.Random(2)
        for _ in range(50):
            code = rng.randrange(1 << 10)  # n = 5 has 10 vertex pairs
            assert graph_code(graph_from_code(5, code)) == code

    def test_empty_and_full(self):
        assert graph_code(SimpleGraph(4, ())) == 0
        complete = SimpleGraph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
        assert graph_code(complete) == (1 << 6) - 1

    def test_canonical_code_is_minimal(self):
        rng = random.Random(3)
        for _ in range(40):
            code = rng.randrange(1 << 15)  # n = 6
            assert canonical_code(6, code) <= code

    @pytest.mark.parametrize("n", range(1, 6))
    def test_canonical_code_is_min_over_relabelings(self, n):
        # Every code, disconnected ones included, against a pure-Python
        # minimum: bit b of a code moves to the bit of its permuted pair.
        pairs = list(itertools.combinations(range(n), 2))
        index = {pair: b for b, pair in enumerate(pairs)}
        moves = [
            [index[tuple(sorted((p[u], p[v])))] for u, v in pairs]
            for p in itertools.permutations(range(n))
        ]
        for code in range(1 << len(pairs)):
            ones = [b for b in range(len(pairs)) if code >> b & 1]
            brute = min(sum(1 << move[b] for b in ones) for move in moves)
            assert canonical_code(n, code) == brute, (n, code)

    @pytest.mark.parametrize("code", [1 << 3, 1 << 10, -1])
    def test_code_out_of_range_rejected(self, code):
        with pytest.raises(ValueError, match="code out of range"):
            graph_from_code(3, code)
        with pytest.raises(ValueError, match="code out of range"):
            canonical_code(3, code)

    def test_canonical_form_invariant_under_relabeling(self):
        rng = random.Random(4)
        g = SimpleGraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)))
        expect = canonical_form(g)
        for _ in range(12):
            assert canonical_form(shuffled(g, rng)) == expect

    def test_canonical_form_idempotent(self):
        g = SimpleGraph(5, ((0, 3), (1, 3), (2, 4), (3, 4)))
        c = canonical_form(g)
        assert canonical_form(c) == c

    def test_distinguishes_nonisomorphic(self):
        # same degree sequence (2,2,2,2,2,2): hexagon vs two triangles
        hexagon = SimpleGraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)))
        triangles = SimpleGraph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
        assert canonical_form(hexagon) != canonical_form(triangles)


class TestEnumerateConnected:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_class_counts(self, n):
        assert len(enumerate_connected_graphs(n)) == CONNECTED_COUNTS[n]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_atlas_up_to_isomorphism(self, n):
        ours = {graph_code(g) for g in enumerate_connected_graphs(n)}
        theirs = {canonical_code(n, graph_code(g)) for g in atlas_connected(n)}
        assert ours == theirs

    def test_all_connected_and_canonical(self):
        for g in enumerate_connected_graphs(5):
            assert is_connected(g)
            assert canonical_form(g) == g

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_connected_graphs(0)
        with pytest.raises(ValueError):
            enumerate_connected_graphs(9)

    def test_large_size_needs_opt_in(self):
        with pytest.raises(ValueError):
            enumerate_connected_graphs(8)


class TestAugmentationMatchesScan:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_bit_identical_to_scan_and_filter(self, n):
        assert _connected_class_codes(n) == scan_connected_class_codes(n)

    def test_codes_are_python_ints_in_increasing_order(self):
        codes = _connected_class_codes(6)
        assert all(type(c) is int for c in codes)
        assert list(codes) == sorted(set(codes))


@st.composite
def connected_labelled_graphs(draw):
    """A random spanning tree plus random extra edges, randomly relabelled."""
    n = draw(st.integers(1, 7))
    perm = draw(st.permutations(range(n)))
    edges = {(perm[v], perm[draw(st.integers(0, v - 1))]) for v in range(1, n)}
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    return SimpleGraph(n, tuple({tuple(sorted(e)) for e in edges}))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(connected_labelled_graphs())
def test_every_connected_graph_has_its_class_enumerated(g):
    assert is_connected(g)
    assert canonical_code(g.n, graph_code(g)) in _connected_class_codes(g.n)


# Connected unicyclic graphs (m = n) on n vertices: OEIS A001429.
UNICYCLIC_COUNTS = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89}


@pytest.mark.parametrize("n", sorted(UNICYCLIC_COUNTS))
def test_unicyclic_class_counts(n):
    codes = _connected_class_codes(n)
    assert sum(code.bit_count() == n for code in codes) == UNICYCLIC_COUNTS[n]


class TestEightVertices:
    def test_class_and_bipartite_counts(self):
        graphs = enumerate_connected_graphs(8, big=True)
        assert len(graphs) == 11117  # OEIS A001349
        assert sum(is_bipartite(g) is not None for g in graphs) == 182  # OEIS A005142


class TestEnumerateNonbipartite:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_atlas_filter(self, n):
        expected = {
            graph_code(canonical_form(g))
            for g in atlas_connected(n)
            if is_bipartite(g) is None
        }
        ours = {graph_code(g) for g in enumerate_connected_nonbipartite(n)}
        assert ours == expected

    def test_members_are_odd_cyclic_and_connected(self):
        for g in enumerate_connected_nonbipartite(5):
            assert is_connected(g)
            assert is_bipartite(g) is None

    def test_smallest_case_is_triangle(self):
        graphs = list(enumerate_connected_nonbipartite(3))
        assert len(graphs) == 1
        assert graphs[0].m == 3

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            list(enumerate_connected_nonbipartite(2))
