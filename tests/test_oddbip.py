import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergraph_spectra import (
    Bipartition,
    Hypergraph,
    ParitySystem,
    SimpleGraph,
    cycle_graph,
    cycle_plus_pendant,
    generalized_power,
    gf2_solve,
    is_bipartite,
    odd_bipartition,
    parity_system,
    path_graph,
    s_cycle,
    s_path,
    verify_odd_bipartition,
)

from helpers import brute_odd_bipartite, eager_gf2_solve


def satisfies(system: ParitySystem, x: int) -> bool:
    return all(
        (x & row).bit_count() % 2 == b for row, b in zip(system.rows, system.rhs)
    )


class TestGf2Solve:
    def test_identity_system(self):
        sys_ = ParitySystem(3, (1, 2, 4), (1, 0, 1))
        assert gf2_solve(sys_) == 0b101

    def test_inconsistent(self):
        assert gf2_solve(ParitySystem(1, (1, 1), (0, 1))) is None

    def test_zero_row_odd_rhs(self):
        assert gf2_solve(ParitySystem(2, (0,), (1,))) is None

    def test_empty_system_solved_by_zero(self):
        assert gf2_solve(ParitySystem(3, (), ())) == 0

    def test_underdetermined_solution_satisfies(self):
        sys_ = ParitySystem(4, (0b0011, 0b0110, 0b1111), (1, 1, 1))
        x = gf2_solve(sys_)
        assert x is not None and satisfies(sys_, x)

    def test_deterministic(self):
        sys_ = ParitySystem(5, (0b00111, 0b11100), (1, 1))
        assert gf2_solve(sys_) == gf2_solve(sys_)

    def test_random_systems_match_brute_force(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randrange(1, 9)
            rows = tuple(rng.randrange(1 << n) for _ in range(rng.randrange(0, 7)))
            rhs = tuple(rng.randrange(2) for _ in rows)
            sys_ = ParitySystem(n, rows, rhs)
            x = gf2_solve(sys_)
            brute = any(satisfies(sys_, y) for y in range(1 << n))
            if x is None:
                assert not brute
            else:
                assert satisfies(sys_, x)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ParitySystem(2, (1,), (1, 0))


def seeded_base(rng: random.Random, n: int, m: int, bipartite: bool) -> SimpleGraph:
    """Connected base graph: a random spanning tree plus random edges. A
    bipartite base only joins even to odd vertices."""
    edges = set()
    for v in range(1, n):
        u = rng.randrange(1 - v % 2, v, 2) if bipartite else rng.randrange(v)
        edges.add((u, v))
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        if not bipartite or (v - u) % 2:
            edges.add((u, v))
    return SimpleGraph(n, tuple(edges))


class TestLazyEchelonMatchesEager:
    def test_random_systems_bit_identical(self):
        rng = random.Random(23)
        outcomes = {"consistent": 0, "inconsistent": 0, "rank-deficient": 0}
        for _ in range(1500):
            n = rng.randrange(1, 71)
            density = rng.choice((0.05, 0.2, 0.5))
            rows = [
                sum(1 << v for v in range(n) if rng.random() < density)
                for _ in range(rng.randrange(0, n + 10))
            ]
            for _ in range(rng.randrange(0, 4) if len(rows) >= 2 else 0):
                a, b = rng.sample(range(len(rows)), 2)
                rows.append(rows[a] ^ rows[b])
            if rng.random() < 0.5:  # a planted solution makes it consistent
                x0 = rng.randrange(1 << n)
                rhs = [(r & x0).bit_count() % 2 for r in rows]
            else:
                rhs = [rng.randrange(2) for _ in rows]
            sys_ = ParitySystem(n, tuple(rows), tuple(rhs))
            x = gf2_solve(sys_)
            assert x == eager_gf2_solve(sys_)
            if x is None:
                outcomes["inconsistent"] += 1
            else:
                assert satisfies(sys_, x)
                outcomes["consistent"] += 1
                # rank < n leaves a free variable: flipping it keeps a solution
                free = [v for v in range(n) if satisfies(sys_, x ^ (1 << v))]
                outcomes["rank-deficient"] += bool(free) or len(rows) < n
        assert min(outcomes.values()) >= 200, outcomes

    @pytest.mark.parametrize("bipartite", [True, False])
    def test_large_lift_bit_identical(self, bipartite):
        g = seeded_base(random.Random(5), 1000, 3000, bipartite)
        h, _ = generalized_power(g, 4, 2)
        sys_ = parity_system(h)
        x = gf2_solve(sys_)
        assert x == eager_gf2_solve(sys_)
        assert (x is not None) == bipartite
        if bipartite:
            assert satisfies(sys_, x)

    def test_huge_variable_count_validates_without_a_huge_mask(self):
        sys_ = ParitySystem(10**12, (0b101, 0b100), (1, 1))
        assert sys_.rows == (0b101, 0b100)

    def test_row_beyond_variable_count_rejected(self):
        with pytest.raises(ValueError):
            ParitySystem(3, (0b1000,), (1,))
        with pytest.raises(ValueError):
            ParitySystem(3, (-1,), (1,))


@st.composite
def even_uniform_hypergraphs(draw):
    k = draw(st.sampled_from((2, 4, 6)))
    n = draw(st.integers(k, 9))
    edge = st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    edges = draw(st.lists(edge.map(lambda e: tuple(sorted(e))), max_size=8, unique=True))
    return Hypergraph(k, n, tuple(edges))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(even_uniform_hypergraphs())
def test_odd_bipartition_agrees_with_exhaustive_search(h):
    cert = odd_bipartition(h)
    assert (cert is not None) == brute_odd_bipartite(h)
    if cert is not None:
        assert verify_odd_bipartition(h, cert)


class TestParitySystem:
    def test_one_row_per_edge_all_odd(self):
        h = s_path(4, 2, 3)
        sys_ = parity_system(h)
        assert sys_.n_vars == h.n
        assert len(sys_.rows) == h.m
        assert all(b == 1 for b in sys_.rhs)
        for row, e in zip(sys_.rows, h.edges):
            assert row == sum(1 << v for v in e)


class TestIsBipartite:
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_paths_bipartite_with_valid_certificate(self, n):
        g = path_graph(n)
        b = is_bipartite(g)
        assert b is not None
        for u, v in g.edges:
            assert (u in b.part_one) != (v in b.part_one)

    def test_even_cycles_yes_odd_no(self):
        assert is_bipartite(cycle_graph(4)) is not None
        assert is_bipartite(cycle_graph(6)) is not None
        assert is_bipartite(cycle_graph(3)) is None
        assert is_bipartite(cycle_graph(5)) is None

    def test_pendant_cycle_follows_cycle_parity(self):
        assert is_bipartite(cycle_plus_pendant(4)) is None  # triangle inside
        assert is_bipartite(cycle_plus_pendant(5)) is not None

    def test_disconnected_odd_component_detected(self):
        g = SimpleGraph(5, ((0, 1), (2, 3), (2, 4), (3, 4)))
        assert is_bipartite(g) is None

    def test_certificate_covers_every_vertex(self):
        g = SimpleGraph(5, ((0, 1), (3, 4)))
        b = is_bipartite(g)
        assert b is not None
        assert b.part_one | b.part_two == set(range(5))

    def test_refuses_edges_of_size_other_than_two(self):
        h, _ = generalized_power(cycle_graph(4), 4, 2)
        with pytest.raises(ValueError):
            is_bipartite(h)


@st.composite
def graphs_with_isolated_vertices(draw) -> SimpleGraph:
    """A graph on 1-9 vertices with any edge set, connected or not."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return SimpleGraph(n, tuple(draw(st.sets(st.sampled_from(pairs)))) if pairs else ())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graphs_with_isolated_vertices())
def test_is_bipartite_matches_split_search(g):
    # At k = 2 the split search of brute_odd_bipartite is a 2-colouring search.
    b = is_bipartite(g)
    assert (b is not None) == brute_odd_bipartite(g)
    if b is not None:
        assert b.part_one | b.part_two == frozenset(range(g.n))
        assert all((u in b.part_one) != (v in b.part_one) for u, v in g.edges)


class TestOddBipartition:
    def test_blown_up_cycles_follow_length_parity(self):
        for m in range(3, 7):
            for k in (4, 6):
                h, _ = generalized_power(cycle_graph(m), k, k // 2)
                cert = odd_bipartition(h)
                assert (cert is not None) == (m % 2 == 0), (k, m)

    def test_near_tight_cycles(self):
        assert odd_bipartition(s_cycle(4, 3, 8)) is not None
        assert odd_bipartition(s_cycle(4, 3, 6)) is None

    @pytest.mark.parametrize("k", [4, 6])
    def test_loose_paths_always_split(self, k):
        for s in range(1, k):
            for d in (1, 2, 3):
                assert odd_bipartition(s_path(k, s, d)) is not None

    def test_fresh_vertices_always_allow_a_split(self):
        # below the half-edge regime every edge has its own private vertices
        for base in (cycle_graph(3), cycle_plus_pendant(4)):
            h, _ = generalized_power(base, 4, 1)
            assert odd_bipartition(h) is not None

    def test_certificates_verify(self):
        cases = [
            s_cycle(4, 3, 8),
            s_path(6, 3, 2),
            generalized_power(cycle_graph(4), 4, 2)[0],
            generalized_power(cycle_graph(3), 4, 1)[0],
        ]
        for h in cases:
            cert = odd_bipartition(h)
            assert cert is not None
            assert verify_odd_bipartition(h, cert)
            assert cert.part_one | cert.part_two == set(range(h.n))

    def test_odd_rank_rejected(self):
        with pytest.raises(ValueError):
            odd_bipartition(s_path(3, 1, 2))
        with pytest.raises(ValueError):
            odd_bipartition(s_path(5, 2, 2))

    def test_agrees_with_exhaustive_search(self):
        cases = [
            generalized_power(cycle_graph(m), 4, 2)[0] for m in range(3, 7)
        ]
        cases += [
            s_cycle(4, 3, 6),
            s_cycle(4, 3, 8),
            s_path(4, 1, 2),
            s_path(4, 2, 3),
            generalized_power(cycle_plus_pendant(4), 4, 1)[0],
        ]
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randrange(6, 11)  # need enough distinct 4-subsets
            m = rng.randrange(1, 7)
            pool = list(range(n))
            edges = set()
            while len(edges) < m:
                edges.add(tuple(sorted(rng.sample(pool, 4))))
            cases.append(Hypergraph(4, n, tuple(edges)))
        for h in cases:
            cert = odd_bipartition(h)
            assert (cert is not None) == brute_odd_bipartite(h)
            if cert is not None:
                assert verify_odd_bipartition(h, cert)


class TestVerifyOddBipartition:
    def test_rejects_non_partition(self):
        h = s_cycle(4, 2, 3)
        with pytest.raises(ValueError):
            verify_odd_bipartition(h, Bipartition(frozenset({0}), frozenset({1})))
        with pytest.raises(ValueError):
            verify_odd_bipartition(
                h, Bipartition(frozenset(range(6)), frozenset({6}))
            )

    def test_even_meeting_fails(self):
        h = s_cycle(4, 2, 3)
        b = Bipartition(frozenset({0}), frozenset(range(1, 6)))
        assert not verify_odd_bipartition(h, b)

    def test_good_split_passes(self):
        h = s_path(4, 2, 1)
        b = Bipartition(frozenset({0}), frozenset({1, 2, 3}))
        assert verify_odd_bipartition(h, b)
