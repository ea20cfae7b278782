import copy
import math
import pickle
import random
import re
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergraph_spectra import (
    AdjacencyTensor,
    Hypergraph,
    SignlessLaplacianTensor,
    SimpleGraph,
    SpectralResult,
    convergence_report,
    cycle_graph,
    cycle_plus_pendant,
    generalized_power,
    half_edge_constancy,
    is_connected,
    lift_vector,
    min_rho_search,
    pendant_cycle_rho_sequence,
    power_iteration_rho,
    rho_adjacency_matrix,
    rho_bounds,
    rho_signless_laplacian_matrix,
    s_cycle,
    s_path,
    weakly_irreducible,
)
from hypergraph_spectra import tensors

from helpers import (
    _tarjan_scc,
    add_at_apply,
    adjacency_matrix,
    cooccurrence_arcs,
    degrees,
    eig_rho_adjacency,
    eig_rho_signless,
    jacobian_reference,
    path_graph,
    power_hypergraph_signless_rho,
    power_iteration_reference,
    remove_edge,
    signless_laplacian_matrix,
)

DISJOINT_PAIR = Hypergraph(4, 8, ((0, 1, 2, 3), (4, 5, 6, 7)))
# Spine 0 - 1 - 2 with two leaves at 0 and three at 2.
CATERPILLAR = SimpleGraph(8, ((0, 1), (1, 2), (0, 3), (0, 4), (2, 5), (2, 6), (2, 7)))


def star(r: int) -> SimpleGraph:
    return SimpleGraph(r + 1, tuple((0, j) for j in range(1, r + 1)))


def ratios(t, x: np.ndarray) -> np.ndarray:
    """Collatz-Wielandt ratios (T x^{k-1})_i / x_i^{k-1}."""
    return t.apply(x) / x ** (t.order - 1)


def shifted_ratios(t, x: np.ndarray) -> np.ndarray:
    """The ratios of T + I at x, computed as the solver computes them."""
    xk = x ** (t.order - 1)
    return (t.apply(x) + xk) / xk


def random_hypergraph(rng: random.Random, k: int, n: int, m: int) -> Hypergraph:
    """m distinct random k-sets on n vertices (fewer if there are fewer)."""
    edges = set()
    while len(edges) < min(m, math.comb(n, k)):
        edges.add(tuple(sorted(rng.sample(range(n), k))))
    return Hypergraph(k, n, tuple(edges))


class TestAdjacencyApply:
    def test_single_triple_edge(self):
        t = AdjacencyTensor(Hypergraph(3, 3, ((0, 1, 2),)))
        out = t.apply([1.0, 2.0, 3.0])
        assert out.tolist() == [6.0, 3.0, 2.0]

    def test_zero_entries_stay_exact(self):
        t = AdjacencyTensor(Hypergraph(4, 4, ((0, 1, 2, 3),)))
        assert t.apply([1.0, 1.0, 0.0, 1.0]).tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_homogeneous_of_degree_k_minus_one(self):
        h, _ = generalized_power(cycle_graph(4), 4, 2)
        t = AdjacencyTensor(h)
        rng = np.random.default_rng(3)
        x = rng.uniform(0.5, 2.0, size=h.n)
        np.testing.assert_allclose(
            t.apply(2.0 * x), 2.0 ** (h.k - 1) * t.apply(x), rtol=1e-12
        )

    def test_relabeling_equivariance(self):
        h = s_path(4, 2, 2)
        perm = [3, 0, 5, 1, 4, 2]
        relabeled = Hypergraph(
            4, 6, tuple(tuple(perm[v] for v in e) for e in h.edges)
        )
        rng = np.random.default_rng(5)
        x = rng.uniform(0.1, 1.0, size=6)
        x2 = np.empty(6)
        x2[perm] = x
        out = AdjacencyTensor(h).apply(x)
        out2 = AdjacencyTensor(relabeled).apply(x2)
        np.testing.assert_allclose(out2[perm], out, rtol=1e-12)

    def test_rank_two_case_is_matrix_action(self):
        g = cycle_graph(5)
        h = Hypergraph(2, 5, g.edges)
        x = np.arange(1.0, 6.0)
        a = np.zeros((5, 5))
        for u, v in g.edges:
            a[u, v] = a[v, u] = 1.0
        np.testing.assert_allclose(AdjacencyTensor(h).apply(x), a @ x)

    def test_rejects_wrong_length(self):
        t = AdjacencyTensor(s_path(4, 2, 2))
        with pytest.raises(ValueError):
            t.apply([1.0, 2.0])


class TestSignlessLaplacianApply:
    def test_single_edge_by_hand(self):
        t = SignlessLaplacianTensor(s_path(4, 2, 1))
        out = t.apply([1.0, 2.0, 3.0, 4.0])
        assert out.tolist() == [25.0, 20.0, 35.0, 70.0]

    def test_decomposes_as_degree_plus_adjacency(self):
        h = s_cycle(6, 3, 4)
        rng = np.random.default_rng(9)
        x = rng.uniform(0.5, 1.5, size=h.n)
        q = SignlessLaplacianTensor(h).apply(x)
        a = AdjacencyTensor(h).apply(x)
        d = np.array(degrees(h), dtype=float)
        np.testing.assert_allclose(q, a + d * x ** (h.k - 1), rtol=1e-12)

    @pytest.mark.parametrize("h", [cycle_plus_pendant(9), s_cycle(6, 3, 4)], ids=["k=2", "k=6"])
    def test_given_power_gives_the_same_bits(self, h):
        x = np.random.default_rng(3).uniform(0.5, 1.5, size=h.n)
        xk = x ** (h.k - 1)
        q = SignlessLaplacianTensor(h)
        a = AdjacencyTensor(h)
        assert np.array_equal(q.apply(x, xk), q.apply(x))
        assert np.array_equal(q.apply(x), a.apply(x) + q.row_sums() / 2 * xk)
        assert np.array_equal(a.apply(x, xk), a.apply(x))


class TestRowSums:
    def test_adjacency_row_sums_are_degrees(self):
        h, bmap = generalized_power(cycle_plus_pendant(4), 4, 2)
        rs = AdjacencyTensor(h).row_sums()
        base_deg = {0: 1, 1: 3, 2: 2, 3: 2}
        for v, block in enumerate(bmap.vertex_blocks):
            for u in block:
                assert rs[u] == base_deg[v]

    def test_signless_doubles_them(self):
        h = s_path(4, 2, 2)
        np.testing.assert_array_equal(
            SignlessLaplacianTensor(h).row_sums(),
            2.0 * AdjacencyTensor(h).row_sums(),
        )

    def test_bounds_bracket(self):
        assert rho_bounds(AdjacencyTensor(s_path(4, 2, 2))) == (1.0, 2.0)
        assert rho_bounds(SignlessLaplacianTensor(s_cycle(4, 2, 3))) == (4.0, 4.0)

    def test_row_sums_count_incidences(self):
        h = Hypergraph(3, 4, ((0, 1, 2), (0, 1, 3)))
        assert AdjacencyTensor(h).row_sums().tolist() == [2.0, 2.0, 1.0, 1.0]

    def test_handshake_identity(self):
        # the degrees add up to k times the edge count
        rng = random.Random(8)
        for h in [s_cycle(6, 3, 4), s_path(5, 2, 3), random_hypergraph(rng, 4, 9, 7)]:
            assert AdjacencyTensor(h).row_sums().sum() == h.k * h.m

    def test_edgeless_bounds_are_zero(self):
        assert rho_bounds(AdjacencyTensor(Hypergraph(5, 7))) == (0.0, 0.0)
        assert rho_bounds(SignlessLaplacianTensor(Hypergraph(5, 7))) == (0.0, 0.0)


class TestApplyMatchesAddAtReference:
    RANKS = (2, 3, 4, 5, 6, 8, 12, 20)

    def test_bit_identical_on_random_hypergraphs(self):
        rng = random.Random(31)
        nrng = np.random.default_rng(31)
        for k in self.RANKS:
            for _ in range(10):
                n = rng.randrange(k, 40)
                h = random_hypergraph(rng, k, n, rng.randrange(0, 3 * n))
                x = nrng.uniform(0.0, 2.0, size=n)
                x[nrng.random(n) < 0.2] = 0.0
                ref = add_at_apply(h, x)
                assert np.array_equal(AdjacencyTensor(h).apply(x), ref)
                deg = np.array(degrees(h), dtype=float)
                signless = SignlessLaplacianTensor(h).apply(x)
                assert np.array_equal(signless, ref + deg * x ** (k - 1))

    @pytest.mark.parametrize("k", RANKS)
    @pytest.mark.parametrize("m", [0, 1])
    def test_bit_identical_with_at_most_one_edge(self, k, m):
        n = k + 2
        h = Hypergraph(k, n, (tuple(range(1, k + 1)),)[:m])
        x = np.random.default_rng(k).uniform(0.5, 1.5, size=n)
        out = AdjacencyTensor(h).apply(x)
        assert out.dtype == float
        assert np.array_equal(out, add_at_apply(h, x))

    def test_bit_identical_on_a_lift(self):
        h, _ = generalized_power(CATERPILLAR, 4, 2)
        x = np.random.default_rng(4).uniform(0.1, 1.0, size=h.n)
        assert np.array_equal(AdjacencyTensor(h).apply(x), add_at_apply(h, x))

    def test_bit_identical_on_a_long_loose_path(self):
        h = s_path(20, 1, 20)
        x = np.random.default_rng(20).uniform(0.5, 1.5, size=h.n)
        assert np.array_equal(AdjacencyTensor(h).apply(x), add_at_apply(h, x))

    def test_bit_identical_at_lift_scale(self):
        h = random_hypergraph(random.Random(8000), 4, 4000, 8000)
        assert h.m >= 8000
        x = np.random.default_rng(8000).uniform(0.1, 1.0, size=h.n)
        assert np.array_equal(AdjacencyTensor(h).apply(x), add_at_apply(h, x))

    def test_edgeless_gives_zeros(self):
        h = Hypergraph(4, 3)
        assert np.array_equal(AdjacencyTensor(h).apply(np.ones(3)), np.zeros(3))


class TestApplyBufferReuse:
    def test_repeated_calls_match_a_fresh_tensor(self):
        h, _ = generalized_power(CATERPILLAR, 4, 2)
        nrng = np.random.default_rng(5)
        x1, x2 = nrng.uniform(0.1, 1.0, size=(2, h.n))
        x2[::3] = 0.0
        t = AdjacencyTensor(h)
        t.apply(x1)
        t.apply(x2)
        assert np.array_equal(t.apply(x1), AdjacencyTensor(h).apply(x1))

    @pytest.mark.parametrize("cls", [AdjacencyTensor, SignlessLaplacianTensor])
    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))])
    def test_copies_keep_working(self, cls, duplicate):
        h = s_path(4, 2, 3)
        x1, x2 = np.random.default_rng(7).uniform(0.1, 1.0, size=(2, h.n))
        t = cls(h)
        t.apply(x2)
        twin = duplicate(t)
        assert np.array_equal(twin.apply(x1), cls(h).apply(x1))
        assert np.array_equal(t.apply(x2), cls(h).apply(x2))

    def test_returned_array_is_not_a_buffer(self):
        h = s_path(4, 2, 3)
        x = np.random.default_rng(6).uniform(0.1, 1.0, size=h.n)
        t = AdjacencyTensor(h)
        expected = t.apply(x).copy()
        first = t.apply(x)
        first[:] = np.nan
        assert np.array_equal(t.apply(x), expected)
        assert not np.shares_memory(t.apply(x), t.apply(x))


class TestIrreducibilityMatchesTarjan:
    def test_random_hypergraphs(self):
        rng = random.Random(37)
        verdicts = set()
        for k in (2, 3, 4):
            for _ in range(40):
                n = rng.randrange(k, 16)
                h = random_hypergraph(rng, k, n, rng.randrange(0, n))
                expected = _tarjan_scc(cooccurrence_arcs(h)) == 1
                assert weakly_irreducible(AdjacencyTensor(h)) == expected
                assert weakly_irreducible(SignlessLaplacianTensor(h)) == expected
                verdicts.add(expected)
        assert verdicts == {True, False}

    def test_isolated_vertex(self):
        h = Hypergraph(4, 5, ((0, 1, 2, 3),))
        assert _tarjan_scc(cooccurrence_arcs(h)) == 2
        assert not weakly_irreducible(AdjacencyTensor(h))
        assert not weakly_irreducible(SignlessLaplacianTensor(h))

    def test_single_vertex_no_edges(self):
        h = Hypergraph(4, 1)
        assert _tarjan_scc(cooccurrence_arcs(h)) == 1
        assert weakly_irreducible(AdjacencyTensor(h))
        assert weakly_irreducible(SignlessLaplacianTensor(h))

    def test_array_built_hypergraphs(self):
        # The labelling runs on the edge array; Tarjan is its oracle.
        rng = random.Random(41)
        verdicts = set()
        for k in (2, 3, 4, 6):
            for _ in range(60):
                n = rng.randrange(1, 40)
                h = random_hypergraph(rng, k, n, rng.randrange(0, 2 * n)) if n >= k else Hypergraph(k, n)
                perm = rng.sample(range(n), n)  # relabel, so low labels are not always hubs
                rows = np.array([[perm[v] for v in e] for e in h.edges], dtype=np.int64).reshape(h.m, k)
                h = Hypergraph(k, n, rows)
                expected = _tarjan_scc(cooccurrence_arcs(h)) == 1
                assert is_connected(h) == expected
                assert weakly_irreducible(AdjacencyTensor(h)) == expected
                assert weakly_irreducible(SignlessLaplacianTensor(h)) == expected
                verdicts.add(expected)
        assert verdicts == {True, False}

    @pytest.mark.parametrize(
        "k, n, rows, expected",
        [
            (3, 1, [], True),
            (3, 2, [], False),
            (3, 3, [], False),
            (3, 3, [[2, 0, 1]], True),
            (3, 5, [[0, 1, 2]], False),  # two isolated vertices
            (3, 5, [[3, 4, 2]], False),  # vertex 0 isolated
            (2, 6, [[5, 4], [4, 3], [3, 2], [2, 1], [1, 0]], True),  # path, labels descending
            (2, 6, [[0, 1], [2, 3], [4, 5], [1, 2]], False),
        ],
    )
    def test_array_built_small_cases(self, k, n, rows, expected):
        h = Hypergraph(k, n, np.array(rows, dtype=np.int64).reshape(len(rows), k))
        assert (_tarjan_scc(cooccurrence_arcs(h)) == 1) == expected
        assert weakly_irreducible(AdjacencyTensor(h)) == expected
        assert weakly_irreducible(SignlessLaplacianTensor(h)) == expected

    def test_long_path_with_adversarial_labels(self):
        # Labels alternate low and high along a path of 2000 vertices.
        order = [v for pair in zip(range(1000), range(1999, 999, -1)) for v in pair]
        rows = np.array(list(zip(order, order[1:])), dtype=np.int64)
        assert weakly_irreducible(AdjacencyTensor(Hypergraph(2, 2000, rows)))
        assert not weakly_irreducible(AdjacencyTensor(Hypergraph(2, 2000, rows[:-1])))


class TestWeakIrreducibility:
    def test_connected_hypergraph_yes(self):
        assert weakly_irreducible(AdjacencyTensor(s_cycle(4, 2, 3)))
        assert weakly_irreducible(SignlessLaplacianTensor(s_path(6, 3, 2)))

    def test_disconnected_hypergraph_no(self):
        assert not weakly_irreducible(AdjacencyTensor(DISJOINT_PAIR))

    def test_diagonal_tensor_no(self):
        # edgeless: Q = D + A has only (zero) diagonal entries, no arcs
        t = SignlessLaplacianTensor(Hypergraph(3, 3))
        np.testing.assert_array_equal(t.apply(np.ones(3)), np.zeros(3))
        assert not weakly_irreducible(t)


class TestPowerIteration:
    def test_regular_lift_converges_immediately_and_exactly(self):
        h = s_cycle(4, 2, 3)
        res = power_iteration_rho(AdjacencyTensor(h))
        assert res.rho == 2.0 and res.iterations == 1 and res.converged
        assert res.upper - res.lower == 0.0

    def test_single_edge_values(self):
        h = s_path(6, 3, 1)
        assert power_iteration_rho(AdjacencyTensor(h)).rho == 1.0
        assert power_iteration_rho(SignlessLaplacianTensor(h)).rho == 2.0

    def test_sunflower_closed_form(self):
        # r edges pairwise meeting in one vertex: rho(A)^k = r
        for k, r in [(4, 3), (4, 5), (6, 3)]:
            h, _ = generalized_power(star(r), k, 1)
            res = power_iteration_rho(AdjacencyTensor(h))
            assert math.isclose(res.rho, r ** (1.0 / k), rel_tol=0, abs_tol=1e-9)

    def test_matches_matrix_radius_through_blowup(self):
        g = cycle_plus_pendant(4)
        rho_a = rho_adjacency_matrix(g, tol=1e-12).rho
        rho_q = rho_signless_laplacian_matrix(g, tol=1e-12).rho
        for k in (4, 6):
            h, _ = generalized_power(g, k, k // 2)
            res_a = power_iteration_rho(AdjacencyTensor(h))
            res_q = power_iteration_rho(SignlessLaplacianTensor(h))
            assert abs(res_a.rho - rho_a) <= 1e-9
            assert abs(res_q.rho - rho_q) <= 1e-9

    def test_cored_blowup_changes_the_radius(self):
        # with fresh vertices per edge the base radius is not preserved
        g = star(3)  # matrix radius sqrt(3)
        h, _ = generalized_power(g, 4, 1)
        res = power_iteration_rho(AdjacencyTensor(h))
        assert abs(res.rho - 3**0.25) <= 1e-9
        assert abs(res.rho - math.sqrt(3)) > 0.3

    def test_eigen_residual_within_bracket(self):
        h, _ = generalized_power(cycle_plus_pendant(4), 4, 2)
        t = AdjacencyTensor(h)
        tol = 1e-10
        res = power_iteration_rho(t, tol=tol)
        x = res.eigenvector
        gap = np.max(np.abs(t.apply(x) - res.rho * x ** (t.order - 1)))
        assert gap <= 10 * tol * (res.rho + 1.0)
        assert res.lower <= res.rho <= res.upper
        assert x.max() == 1.0 and np.all(x > 0)

    def test_unconverged_run_still_brackets(self):
        h = s_path(4, 2, 3)
        res = power_iteration_rho(AdjacencyTensor(h), tol=1e-14, max_iter=2)
        assert not res.converged and res.iterations == 2
        exact = power_iteration_rho(AdjacencyTensor(h)).rho
        assert res.lower <= exact <= res.upper
        assert res.upper - res.lower > 0

    @pytest.mark.parametrize(
        "stop, tensor, controls",
        [
            ("converged", AdjacencyTensor(s_path(4, 2, 3)), {}),
            ("max_iter", AdjacencyTensor(s_path(4, 2, 3)), {"tol": 1e-14, "max_iter": 2}),
            ("underflow", SignlessLaplacianTensor(cycle_plus_pendant(3000)), {}),
        ],
        ids=["converged", "max_iter", "underflow"],
    )
    def test_returned_vector_is_the_bracketed_one(self, stop, tensor, controls):
        # At every stop the bracket belongs to the eigenvector returned, not
        # to the vector one step before or after it.
        res = power_iteration_rho(tensor, **controls)
        assert (res.converged, res._underflow) == (stop == "converged", stop == "underflow")
        shifted = shifted_ratios(tensor, res.eigenvector)
        assert (res.lower + 1.0, res.upper + 1.0) == (shifted.min(), shifted.max())
        assert res.rho == 0.5 * (shifted.min() + shifted.max()) - 1.0
        if stop == "max_iter":
            assert math.isclose(res.lower, 1.3104, abs_tol=1e-4) and math.isclose(res.upper, 1.7631, abs_tol=1e-4)

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            power_iteration_rho(AdjacencyTensor(DISJOINT_PAIR))

    def test_bad_controls_rejected(self):
        t = AdjacencyTensor(s_cycle(4, 2, 3))
        with pytest.raises(ValueError):
            power_iteration_rho(t, tol=0.0)
        with pytest.raises(ValueError):
            power_iteration_rho(t, max_iter=0)
        # Controls of the wrong type: one ValueError naming the value, not a
        # TypeError from deep inside the solve.
        for controls in ({"max_iter": 1e6}, {"max_iter": 1.5}, {"max_iter": None}, {"tol": "1e-10"}):
            ((name, value),) = controls.items()
            with pytest.raises(ValueError, match=f"{name} .*{re.escape(repr(value))}"):
                power_iteration_rho(t, **controls)
        for solve, args in ((min_rho_search, (4,)), (convergence_report, (3,)), (pendant_cycle_rho_sequence, (3,))):
            with pytest.raises(ValueError, match=r"max_iter .*1000000\.0"):
                solve(*args, max_iter=1e6)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 1.0, 2.5])
    def test_nonfinite_or_large_tol_rejected(self, tol):
        t = AdjacencyTensor(s_cycle(4, 2, 3))
        with pytest.raises(ValueError, match="tol"):
            power_iteration_rho(t, tol=tol)

    @pytest.mark.parametrize("tol", [9.9e-15, 1e-17, 1e-300, 5e-324])
    def test_tol_below_double_resolution_rejected(self, tol):
        t = AdjacencyTensor(s_cycle(4, 2, 3))
        with pytest.raises(ValueError, match="tol"):
            power_iteration_rho(t, tol=tol)

    def test_tol_floor_itself_allowed(self):
        res = power_iteration_rho(AdjacencyTensor(s_cycle(4, 2, 3)), tol=1e-14)
        assert res.converged


def same_result(a: SpectralResult, b: SpectralResult) -> bool:
    """Bit for bit the same solve."""
    fields = ("rho", "lower", "upper", "iterations", "converged")
    return all(getattr(a, f) == getattr(b, f) for f in fields) and np.array_equal(a.eigenvector, b.eigenvector)


class TestStartVector:
    @pytest.mark.parametrize("cls", [AdjacencyTensor, SignlessLaplacianTensor])
    @pytest.mark.parametrize(
        "h", [s_path(4, 2, 3), generalized_power(cycle_plus_pendant(22), 4, 2)[0], cycle_plus_pendant(42)]
    )
    def test_none_is_the_all_ones_vector(self, cls, h):
        t = cls(h)
        res = power_iteration_rho(t, tol=1e-13)
        assert same_result(res, power_iteration_rho(t, tol=1e-13, start=np.ones(h.n)))
        # A start is rescaled to max entry 1, exactly so for a power of two.
        assert same_result(res, power_iteration_rho(t, tol=1e-13, start=[4.0] * h.n))

    @pytest.mark.parametrize(
        "k, entry",
        [
            (2, 0.0),
            (2, -0.5),
            (2, math.nan),
            (2, math.inf),
            (2, 1e-310),  # subnormal itself
            (3, 1e-160),  # its square is subnormal
            (4, 1e-110),  # its cube is subnormal
        ],
    )
    def test_bad_entry_rejected(self, k, entry):
        h = s_path(k, 1, 2)
        start = np.ones(h.n)
        start[-1] = entry
        with pytest.raises(ValueError, match="start"):
            power_iteration_rho(AdjacencyTensor(h), start=start)

    @pytest.mark.parametrize("shape", [(4,), (6,), (5, 1), ()])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="length 5"):
            power_iteration_rho(AdjacencyTensor(s_path(3, 1, 2)), start=np.ones(shape))

    def test_normal_power_accepted_and_start_not_modified(self):
        h = s_path(3, 1, 2)  # k = 3: 1e-150 squared is still normal
        start = np.full(h.n, 2.0)
        start[0] = 2e-150
        kept = start.copy()
        res = power_iteration_rho(AdjacencyTensor(h), start=start)
        assert res.converged and np.array_equal(start, kept)

    def test_converged_eigenvector_restarts_in_one_iteration(self):
        t = AdjacencyTensor(s_cycle(4, 2, 3))  # a regular lift
        res = power_iteration_rho(t)
        again = power_iteration_rho(t, start=res.eigenvector)
        assert again.iterations == 1 and same_result(res, again)
        # Also with a tiny spectral gap: the vector returned is the one whose
        # bracket converged.
        for cls in (AdjacencyTensor, SignlessLaplacianTensor):
            t = cls(pendant_lift(20)[0])
            res = power_iteration_rho(t, tol=1e-13)
            again = power_iteration_rho(t, tol=1e-13, start=res.eigenvector)
            assert again.iterations == 1 and (again.lower, again.upper) == (res.lower, res.upper)

    @pytest.mark.parametrize(
        "cls, oracle", [(AdjacencyTensor, eig_rho_adjacency), (SignlessLaplacianTensor, eig_rho_signless)]
    )
    def test_any_positive_start_brackets_the_radius(self, cls, oracle):
        h, g = pendant_lift(10)
        t = cls(h)
        start = np.random.default_rng(3).uniform(0.01, 5.0, h.n)
        res = power_iteration_rho(t, tol=1e-12, start=start)
        assert res.converged and contains(res.lower, res.upper, oracle(g))
        shifted = shifted_ratios(t, res.eigenvector)
        assert (res.lower, res.upper) == (shifted.min() - 1.0, shifted.max() - 1.0)


@pytest.mark.parametrize("cls", [AdjacencyTensor, SignlessLaplacianTensor])
class TestCollatzWielandt:
    """For a connected hypergraph and any positive x, the ratios
    (T x^{k-1})_i / x_i^{k-1} enclose rho(T)."""

    def test_ratios_at_ones_are_the_row_sums(self, cls):
        rng = random.Random(9)
        for h in [s_path(4, 2, 2), random_hypergraph(rng, 5, 10, 8)]:
            t = cls(h)
            np.testing.assert_array_equal(ratios(t, np.ones(h.n)), t.row_sums())

    def test_unequal_row_sums_enclose_the_radius_strictly(self, cls):
        t = cls(s_path(4, 2, 2))
        lo, hi = rho_bounds(t)
        res = power_iteration_rho(t, tol=1e-12)
        assert lo < res.lower <= res.upper < hi

    def test_equal_row_sums_are_the_radius(self, cls):
        t = cls(s_cycle(4, 2, 3))
        lo, hi = rho_bounds(t)
        assert lo == hi == power_iteration_rho(t).rho

    def test_ratios_of_any_positive_vector_enclose_the_radius(self, cls):
        rng = random.Random(10)
        nrng = np.random.default_rng(10)
        for k in (2, 3, 4, 6):
            h = s_path(k, 1, 3) if k > 2 else cycle_plus_pendant(5)
            rho = power_iteration_rho(cls(h), tol=1e-12).rho
            for _ in range(20):
                x = nrng.uniform(0.05, 1.0, h.n) ** rng.choice([1, 3])
                s = ratios(cls(h), x)
                assert s.min() <= rho * (1 + 1e-11)
                assert s.max() >= rho * (1 - 1e-11)

    def test_final_bracket_is_the_ratio_range_of_the_eigenvector(self, cls):
        h, _ = generalized_power(cycle_plus_pendant(6), 4, 2)
        t = cls(h)
        res = power_iteration_rho(t, tol=1e-6)
        x = res.eigenvector
        assert np.all(x > 0) and x.max() == 1.0
        s = ratios(t, x)
        assert math.isclose(res.lower, s.min(), rel_tol=1e-13)
        assert math.isclose(res.upper, s.max(), rel_tol=1e-13)


class TestEntrywiseMonotonicity:
    def test_larger_entries_larger_radius(self):
        h, bmap = generalized_power(cycle_plus_pendant(6), 4, 2)
        lifted = tuple(sorted(bmap.vertex_blocks[2] + bmap.vertex_blocks[3]))
        smaller = remove_edge(h, h.edges.index(lifted))  # still connected
        big = power_iteration_rho(AdjacencyTensor(h))
        small = power_iteration_rho(AdjacencyTensor(smaller))
        assert small.upper < big.lower
        rebuilt = generalized_power(cycle_plus_pendant(6), 4, 2)[0]
        assert power_iteration_rho(AdjacencyTensor(rebuilt)).rho == big.rho


class TestLifting:
    def test_lift_takes_block_roots(self):
        _, bmap = generalized_power(path_graph(2), 4, 2)
        np.testing.assert_allclose(
            lift_vector([1.0, 4.0], bmap), [1.0, 1.0, 2.0, 2.0]
        )

    def test_lifted_matrix_eigenvector_solves_tensor_equation(self):
        g = cycle_plus_pendant(4)
        res = rho_adjacency_matrix(g, tol=1e-13)
        rho, x = res.rho, res.eigenvector
        for k in (4, 6):
            h, bmap = generalized_power(g, k, k // 2)
            z = lift_vector(x, bmap)
            t = AdjacencyTensor(h)
            resid = np.max(np.abs(t.apply(z) - rho * z ** (k - 1)))
            assert resid <= 1e-9

    def test_rejects_cored_map(self):
        _, bmap = generalized_power(path_graph(2), 4, 1)
        with pytest.raises(ValueError):
            lift_vector([1.0, 1.0], bmap)

    def test_rejects_nonpositive_or_wrong_length(self):
        _, bmap = generalized_power(path_graph(2), 4, 2)
        with pytest.raises(ValueError):
            lift_vector([1.0, 0.0], bmap)
        with pytest.raises(ValueError):
            lift_vector([1.0, 1.0, 1.0], bmap)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite(self, bad):
        _, bmap = generalized_power(path_graph(2), 4, 2)
        with pytest.raises(ValueError):
            lift_vector([bad, 1.0], bmap)


class TestHalfEdgeConstancy:
    def test_computed_eigenvector_is_block_constant(self):
        h, bmap = generalized_power(cycle_plus_pendant(5), 4, 2)
        res = power_iteration_rho(AdjacencyTensor(h))
        assert half_edge_constancy(res, bmap) <= 1e-9

    def test_detects_broken_symmetry(self):
        h, bmap = generalized_power(path_graph(2), 4, 2)
        vec = np.array([1.0, 0.5, 1.0, 1.0])
        fake = SpectralResult(1.0, vec, 1, True, 1.0, 1.0)
        assert half_edge_constancy(fake, bmap) == 0.5

    def test_rejects_wrong_length(self):
        _, bmap = generalized_power(path_graph(2), 4, 2)
        fake = SpectralResult(1.0, np.ones(3), 1, True, 1.0, 1.0)
        with pytest.raises(ValueError):
            half_edge_constancy(fake, bmap)


def vertex_system(monkeypatch, t, x: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(matrix, right-hand side, w) of one vertex-form solve, the first two
    as passed to np.linalg.solve."""
    solve, seen = np.linalg.solve, []

    def spy(a, b):
        seen.append((a.copy(), b.copy()))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    w = tensors._scaled_solve(t, x, lam, False)
    monkeypatch.undo()
    [(system, rhs)] = seen
    return system, rhs, w


class TestVertexSystem:
    """For k >= 3 the vertex form solves X M X y = x^{[k]}, with
    M = (k-1) lam diag(x^{k-2}) - J and X = diag(x), and returns w = x y."""

    @staticmethod
    def check(monkeypatch, cls, h, x, lam):
        k, signless = h.k, cls is SignlessLaplacianTensor
        system, rhs, w = vertex_system(monkeypatch, cls(h), x, lam)
        m = (k - 1) * lam * np.diag(x ** (k - 2)) - jacobian_reference(h, x, signless=signless)
        np.testing.assert_allclose(system, x[:, None] * m * x, rtol=1e-13, atol=1e-15 * lam)
        assert np.array_equal(rhs, x**k)
        assert np.array_equal(w, x * np.linalg.solve(system, rhs))

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("cls", [AdjacencyTensor, SignlessLaplacianTensor])
    def test_matches_loop_reference_on_random_hypergraphs(self, monkeypatch, k, cls):
        rng = random.Random(40 + k)
        for _ in range(10):
            n = rng.randint(k, k + 6)
            h = random_hypergraph(rng, k, n, rng.randint(1, 12))
            x = np.array([rng.uniform(0.1, 2.0) for _ in range(n)])
            self.check(monkeypatch, cls, h, x, rng.uniform(0.5, 20.0))

    @pytest.mark.parametrize("cls", [AdjacencyTensor, SignlessLaplacianTensor])
    def test_matches_loop_reference_on_a_loose_path(self, monkeypatch, cls):
        h = s_path(20, 1, 5)
        x = np.random.default_rng(5).uniform(0.5, 1.5, h.n)
        self.check(monkeypatch, cls, h, x, 2.5)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    @pytest.mark.parametrize("cls", [AdjacencyTensor, SignlessLaplacianTensor])
    def test_symmetric_and_euler_identity(self, monkeypatch, k, cls):
        # x -> T x^{k-1} is homogeneous of degree k-1, so J(x) x = (k-1) T x^{k-1}
        # and the scaled system's row sums are (k-1) x (lam x^{[k-1]} - T x^{k-1}).
        rng = random.Random(k)
        h = random_hypergraph(rng, k, k + 5, 9)
        t = cls(h)
        x = np.array([rng.uniform(0.1, 2.0) for _ in range(h.n)])
        lam = 3.0
        system = vertex_system(monkeypatch, t, x, lam)[0]
        assert np.array_equal(system, system.T)
        expected = (k - 1) * x * (lam * x ** (k - 1) - t.apply(x))
        np.testing.assert_allclose(system.sum(axis=1), expected, rtol=1e-12, atol=1e-13)

    def test_slot_pairs_match_a_loop(self):
        rng = random.Random(9)
        for k in (2, 3, 5):
            h = random_hypergraph(rng, k, 12, 15)
            expected = [u * h.n + v for e in h.edge_array.tolist() for u in e for v in e if u != v]
            assert AdjacencyTensor(h)._slot_pairs().tolist() == expected


def pendant_lift(n: int) -> tuple[Hypergraph, SimpleGraph]:
    g = cycle_plus_pendant(2 * n + 2)
    return generalized_power(g, 4, 2)[0], g


def deleted_edge_tree(n: int) -> SimpleGraph:
    """C_{2n+1} plus a pendant edge, less the cycle edge opposite the branch
    vertex: the trees of the convergence report."""
    g = cycle_plus_pendant(2 * n + 2)
    return SimpleGraph(g.n, tuple(e for e in g.edges if e != (n + 1, n + 2)))


def clear_gap_lift(base_n: int, seed: int) -> tuple[Hypergraph, SimpleGraph]:
    """k = 4 lift of a random connected base with 4 * base_n edges and one
    vertex of degree 40, whose spectral gap is wide: the power iteration
    needs under 100 steps. Returns the lift and its base."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, base_n)}
    edges |= {(0, v) for v in range(1, 41)}
    while len(edges) < 4 * base_n:
        u, v = sorted(rng.sample(range(base_n), 2))
        edges.add((u, v))
    g = SimpleGraph(base_n, tuple(edges))
    return generalized_power(g, 4, 2)[0], g


class TestNewtonNoda:
    @pytest.mark.parametrize("k", [40, 80, 120])
    @pytest.mark.parametrize("cls", [AdjacencyTensor, SignlessLaplacianTensor])
    def test_long_loose_path_converges(self, cls, k):
        # n = 29k + 11 vertices on 30 edges: the edge system is solved, above
        # the size cap too. The plain power iteration needs 32,576 steps at
        # k = 40 (adjacency).
        h = s_path(k, 1, 30)
        res = power_iteration_rho(cls(h), tol=1e-10)
        assert res.converged and res.iterations <= 30
        if cls is AdjacencyTensor:
            # The power hypergraph of P_31: rho = rho(P_31)^(2/k).
            rho = (2 * math.cos(math.pi / 32)) ** (2 / k)
        else:
            rho = power_hypergraph_signless_rho(path_graph(31), k)
        assert contains(res.lower, res.upper, rho)

    @pytest.mark.parametrize(
        "cls, oracle", [(AdjacencyTensor, eig_rho_adjacency), (SignlessLaplacianTensor, eig_rho_signless)]
    )
    def test_pendant_cycle_lifts_at_tight_tol(self, cls, oracle):
        # The power iteration takes 423 to 2843 steps on the adjacency side.
        for n in range(5, 51):
            h, g = pendant_lift(n)
            res = power_iteration_rho(cls(h), tol=1e-13)
            assert res.converged and res.iterations <= 60
            assert abs(res.rho - oracle(g)) <= 1e-12
            assert res.lower <= res.rho <= res.upper

    @pytest.mark.parametrize("edge_system", [False, True])
    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    @pytest.mark.parametrize("cls", [AdjacencyTensor, SignlessLaplacianTensor])
    def test_step_lowers_every_ratio(self, cls, k, edge_system):
        rng = random.Random(k)
        nrng = np.random.default_rng(k)
        for _ in range(10):
            h = random_hypergraph(rng, k, rng.randint(k + 1, 12), rng.randint(1, 12))
            t = cls(h)
            x = nrng.uniform(0.05, 1.0, t.dim)
            upper = float(ratios(t, x).max())
            step = tensors._newton_noda_step(t, x, upper, edge_system)
            assert step is not None and step.max() == 1.0
            assert ratios(t, step).max() < upper

    @pytest.mark.parametrize("edge_system", [False, True])
    @pytest.mark.parametrize("cls", [AdjacencyTensor, SignlessLaplacianTensor])
    def test_steps_from_ones_lower_the_upper_bound(self, cls, edge_system):
        # Up to rounding. The arithmetic mean (k-2)/(k-1) x + w/(k-1), the
        # plain Newton step, raises the upper bound here by far more.
        t = cls(pendant_lift(50)[0])
        x = np.ones(t.dim)
        upper = math.inf
        for _ in range(15):
            s = ratios(t, x)
            if s.max() - s.min() <= 1e-12 * s.max():
                break
            assert s.max() < upper * (1 + 1e-14)
            upper = float(s.max())
            x = tensors._newton_noda_step(t, x, upper, edge_system)
        else:
            pytest.fail("no convergence in 15 Newton-Noda steps")

    @pytest.mark.parametrize("cls", [AdjacencyTensor, SignlessLaplacianTensor])
    def test_clear_gap_input_keeps_power_steps(self, monkeypatch, cls):
        t = cls(clear_gap_lift(256, 7)[0])
        monkeypatch.setattr(tensors, "_newton_noda_step", None)  # any call would fail
        res = power_iteration_rho(t, tol=1e-10)
        iterations, x, lower, upper = power_iteration_reference(t, 1e-10, 1_000_000)
        assert res.iterations == iterations < 100
        assert np.array_equal(res.eigenvector, x)
        assert (res.lower, res.upper) == (lower - 1.0, upper - 1.0)

    def test_switch_rule(self):
        # Newton-Noda steps on a 1000 x 1000 system, for an operator with
        # 4000 slots, cost as much as about 4,400 power steps.
        price = tensors._solve_price(1000)
        assert not tensors._newton_pays(4, price, 4000, 10, 0.8, 1e-9)
        assert tensors._newton_pays(4, price, 4000, 10, 1 - 1e-4, 1e-9)
        assert tensors._newton_pays(4, price, 4000, 10, 1.0, 1e-9)
        assert not tensors._newton_pays(4, price, 4000, 4000, 0.8, 1e-9)
        assert tensors._newton_pays(4, price, 4000, 5000, 0.8, 1e-9)

    @pytest.mark.parametrize("failure", ["singular", "nonpositive"])
    @pytest.mark.parametrize("cls", [AdjacencyTensor, SignlessLaplacianTensor])
    @pytest.mark.parametrize("lift", [True, False], ids=["edge-system", "vertex-system"])
    def test_failed_solve_falls_back_to_power_steps(self, monkeypatch, failure, cls, lift):
        # The lift has 24 vertices on 12 edges; its base graph keeps the
        # vertex system.
        h, g = pendant_lift(5)
        t = cls(h if lift else g)
        calls = []

        def broken(m, b):
            calls.append(m.shape)
            if failure == "singular":
                raise np.linalg.LinAlgError("singular matrix")
            return -np.ones_like(b)

        monkeypatch.setattr(np.linalg, "solve", broken)
        res = power_iteration_rho(t, tol=1e-12)
        iterations, x, lower, upper = power_iteration_reference(t, 1e-12, 1_000_000)
        assert calls and res.converged
        size = h.m if lift else g.n
        assert set(calls) == {(size, size)}
        # Every attempted solve fails, so every iterate is the power step's.
        assert res.iterations == iterations
        assert np.array_equal(res.eigenvector, x)
        assert (res.lower, res.upper) == (lower - 1.0, upper - 1.0)


class TestNodaStep:
    """For a graph (k = 2) a Newton-Noda step is one solve with the
    matrix: w = (lam I - M)^{-1} x, then w / max(w)."""

    @pytest.mark.parametrize(
        "cls, matrix", [(AdjacencyTensor, adjacency_matrix), (SignlessLaplacianTensor, signless_laplacian_matrix)]
    )
    def test_step_is_one_solve_with_the_matrix(self, cls, matrix):
        rng = random.Random(16)
        nrng = np.random.default_rng(16)
        for _ in range(20):
            n = rng.randint(2, 40)
            h = random_hypergraph(rng, 2, n, rng.randint(1, 3 * n))
            t = cls(h)
            m = matrix(h)
            # The first step builds the tensor's negated matrix, later ones reuse it.
            for _ in range(3):
                x = nrng.uniform(0.05, 1.0, n)
                lam = float(ratios(t, x).max()) + rng.uniform(0.01, 1.0)  # above rho
                w = np.linalg.solve(lam * np.eye(n) - m, x)
                assert np.array_equal(tensors._scaled_solve(t, x, lam, False), w)
                assert np.array_equal(tensors._newton_noda_step(t, x, lam, False), w / w.max())

    @pytest.mark.parametrize("cls", [AdjacencyTensor, SignlessLaplacianTensor])
    def test_matrix_is_built_lazily_and_once(self, cls):
        # A regular graph's first bracket is exact: no step, no matrix.
        regular = cls(cycle_graph(7))
        assert power_iteration_rho(regular).iterations == 1
        assert regular._negated_adjacency is None
        # Both operators keep -A; Q's degrees go into the diagonal shift.
        t = cls(cycle_plus_pendant(12))
        power_iteration_rho(t, tol=1e-13)
        built = t._negated_adjacency
        assert np.array_equal(built, -adjacency_matrix(t.hypergraph))
        power_iteration_rho(t, tol=1e-13)
        assert t._negated_adjacency is built


class TestEdgeSystem:
    """Newton-Noda steps through the m x m edge system, solved when it is
    cheaper than the n x n vertex system."""

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("cls", [AdjacencyTensor, SignlessLaplacianTensor])
    @pytest.mark.parametrize("edge_system", [False, True])
    def test_matches_the_vertex_system_from_the_loop_jacobian(self, cls, k, edge_system):
        rng = random.Random(70 + k)
        nrng = np.random.default_rng(k)
        signless = cls is SignlessLaplacianTensor
        for _ in range(10):
            n = rng.randint(k + 2, 3 * k)
            h = random_hypergraph(rng, k, n, rng.randint(1, n - 1))
            t = cls(h)
            x = nrng.uniform(0.05, 1.0, n)
            lam = float(ratios(t, x).max())
            m = (k - 1) * lam * np.diag(x ** (k - 2)) - jacobian_reference(h, x, signless=signless)
            w = np.linalg.solve(m, x ** (k - 1))
            np.testing.assert_allclose(tensors._scaled_solve(t, x, lam, edge_system), w, rtol=1e-12, atol=0)
            step = x ** ((k - 2) / (k - 1)) * w ** (1 / (k - 1))
            np.testing.assert_allclose(
                tensors._newton_noda_step(t, x, lam, edge_system), step / step.max(), rtol=1e-12, atol=0
            )

    def test_shared_vertex_pairs_match_a_loop(self):
        rng = random.Random(9)
        for k in (2, 3, 5):
            h = random_hypergraph(rng, k, 12, 15)
            pair_edges, pair_vertex = AdjacencyTensor(h)._shared_vertex_pairs()
            expected = sorted(
                (e * h.m + f, u) for e, a in enumerate(h.edges) for f, b in enumerate(h.edges) for u in set(a) & set(b)
            )
            assert sorted(zip(pair_edges.tolist(), pair_vertex.tolist())) == expected
            assert len(expected) == sum(d**2 for d in degrees(h))

    @pytest.mark.parametrize("cls", [AdjacencyTensor, SignlessLaplacianTensor])
    @pytest.mark.parametrize(
        "build, unused",
        [
            (lambda n: cycle_plus_pendant(2 * n + 2), "_shared_vertex_pairs"),
            (deleted_edge_tree, "_shared_vertex_pairs"),
            (lambda n: pendant_lift(n)[0], "_slot_pairs"),
            (lambda n: s_path(20, 1, n), "_slot_pairs"),
        ],
        ids=["pendant-cycle", "deleted-edge-tree", "pendant-lift", "loose-path"],
    )
    def test_one_system_per_input(self, monkeypatch, cls, build, unused):
        # Graphs (k = 2) keep the vertex system, so their results are those
        # of a loop whose edge form always fails for want of its index table;
        # the lifts and loose paths have fewer edges than vertices and never
        # solve the vertex system.
        calls = []

        def failing(*args):
            calls.append(args)
            raise np.linalg.LinAlgError("singular matrix")

        for n in (1, 10, 50):
            for tol in (1e-10, 1e-13):
                t = cls(build(n))
                before = power_iteration_rho(t, tol=tol)
                monkeypatch.setattr(t, unused, failing)
                after = power_iteration_rho(t, tol=tol)
                monkeypatch.undo()
                assert not calls and after.converged
                assert (after.rho, after.lower, after.upper, after.iterations) == (
                    before.rho,
                    before.lower,
                    before.upper,
                    before.iterations,
                )
                assert np.array_equal(after.eigenvector, before.eigenvector)

    def test_dense_edge_sets_keep_the_vertex_system(self):
        # A k = 4 lift has twice as many edges as vertices.
        t = AdjacencyTensor(clear_gap_lift(256, 7)[0])
        assert t._edge_pairs is None
        res = power_iteration_rho(t, tol=1e-10)
        assert res.converged and t._edge_pairs is None


def contains(res_lower: float, res_upper: float, rho: float) -> bool:
    """lower <= rho <= upper, up to a relative 1e-14 by which eigvalsh
    itself may miss rho."""
    slack = 1e-14 * rho
    return res_lower - slack <= rho <= res_upper + slack


class TestAndersonAboveTheSizeCap:
    """Above _NEWTON_MAX_DIM the power steps are Anderson-mixed. Each test
    lowers the cap below its input and makes any Newton-Noda step fail."""

    @pytest.fixture(autouse=True)
    def above_cap(self, monkeypatch):
        monkeypatch.setattr(tensors, "_NEWTON_MAX_DIM", 1)
        monkeypatch.setattr(tensors, "_newton_noda_step", None)  # any call would fail

    @pytest.mark.parametrize(
        "cls, oracle", [(AdjacencyTensor, eig_rho_adjacency), (SignlessLaplacianTensor, eig_rho_signless)]
    )
    def test_clear_gap_lift_takes_half_the_steps(self, cls, oracle):
        h, g = clear_gap_lift(256, 7)
        t = cls(h)
        res = power_iteration_rho(t, tol=1e-10)
        iterations = power_iteration_reference(t, 1e-10, 1_000_000)[0]
        assert res.converged and res.iterations <= iterations / 2
        assert contains(res.lower, res.upper, oracle(g))
        assert np.all(res.eigenvector > 0) and res.eigenvector.max() == 1.0

    @pytest.mark.parametrize("n", [5, 20, 50])
    @pytest.mark.parametrize(
        "cls, oracle", [(AdjacencyTensor, eig_rho_adjacency), (SignlessLaplacianTensor, eig_rho_signless)]
    )
    def test_tiny_gap_lift_is_not_much_slower(self, cls, oracle, n):
        # The power iteration takes 388 to 2,665 steps on these.
        h, g = pendant_lift(n)
        t = cls(h)
        res = power_iteration_rho(t, tol=1e-12)
        iterations = power_iteration_reference(t, 1e-12, 1_000_000)[0]
        assert res.converged and res.iterations <= 1.25 * iterations
        assert contains(res.lower, res.upper, oracle(g))

    @pytest.mark.parametrize(
        "rho_fn, build, oracle",
        [
            (rho_adjacency_matrix, adjacency_matrix, eig_rho_adjacency),
            (rho_signless_laplacian_matrix, signless_laplacian_matrix, eig_rho_signless),
        ],
    )
    def test_matrix_radii(self, monkeypatch, rho_fn, build, oracle):
        g = cycle_plus_pendant(42)
        runs = []
        loop = tensors._bracketed_iteration

        def recorded(t, *args):
            runs.append((t, loop(t, *args)))
            return runs[-1][1]

        monkeypatch.setattr(tensors, "_bracketed_iteration", recorded)
        res = rho_fn(g, tol=1e-12)
        ((t, run),) = runs
        m = build(g)
        matrix = SimpleNamespace(order=2, dim=g.n, apply=lambda x: m @ x)
        reference = power_iteration_reference(matrix, 1e-12, 1_000_000)[0]
        assert run.converged and run.iterations <= 1.25 * reference
        shifted = shifted_ratios(t, run.eigenvector)
        assert (run.lower + 1.0, run.upper + 1.0) == (shifted.min(), shifted.max())
        assert res is run and run.rho == 0.5 * (shifted.min() + shifted.max()) - 1.0
        assert contains(run.lower, run.upper, oracle(g))

    @pytest.mark.parametrize("failure", ["singular", "nan", "garbage"])
    @pytest.mark.parametrize("cls", [AdjacencyTensor, SignlessLaplacianTensor])
    def test_broken_solve_falls_back_to_power_steps(self, monkeypatch, failure, cls):
        h, _ = pendant_lift(10)
        t = cls(h)
        iterations, x, lower, upper = power_iteration_reference(t, 1e-12, 1_000_000)
        rng = np.random.default_rng(0)
        calls = []

        def broken(m, b):
            calls.append(m.shape)
            if failure == "singular":
                raise np.linalg.LinAlgError("singular matrix")
            if failure == "nan":
                return np.full_like(b, np.nan)
            return rng.normal(size=b.shape) * 1e6

        monkeypatch.setattr(np.linalg, "solve", broken)
        res = power_iteration_rho(t, tol=1e-12, max_iter=10_000)
        assert calls and res.converged
        if failure == "garbage":
            # Proposals that widen the bracket are taken back.
            assert res.iterations <= 1.25 * iterations
        else:
            # Every proposal fails, so every iterate is the power step's.
            assert res.iterations == iterations
            assert np.array_equal(res.eigenvector, x)
            assert (res.lower, res.upper) == (lower - 1.0, upper - 1.0)

    def test_proposal_is_the_power_step_or_positive_with_max_one(self, monkeypatch):
        depth = tensors._ANDERSON_DEPTH
        rng = np.random.default_rng(3)
        scales = [0.1, 1.0, 10.0]
        monkeypatch.setattr(np.linalg, "solve", lambda m, b: rng.normal(size=len(b)) * rng.choice(scales))
        mixer = tensors._AndersonMixer(8, 2)
        x = np.ones(8)
        plain_ahead = depth  # steps before the history is full
        mixed = failed = 0
        for _ in range(300):
            g = rng.uniform(0.2, 1.0, 8)
            g /= g.max()
            step = mixer.propose(x, g)
            if plain_ahead:
                assert step is g
                plain_ahead -= 1
            elif step is g:
                # A failed proposal clears the history, which refills over power steps.
                plain_ahead = depth - 1
                failed += 1
            else:
                assert np.all(step > 0) and step.max() == 1.0
                mixed += 1
            x = step
        assert mixed and failed


class TestUnderflowStop:
    """The Perron vector of a long pendant cycle decays geometrically away
    from the pendant, so past a few thousand vertices its far entries leave
    the normal double range and the bracket can no longer close."""

    # 2 + theta, theta the real root of theta^3 - 4 theta - 4: the limit of
    # rho(D + A) over the pendant odd cycles, reached in doubles long before
    # 3000 vertices.
    Q_LIMIT = 2.0 + max(r.real for r in np.roots([1, 0, -4, -4]) if abs(r.imag) < 1e-9)

    def test_long_pendant_cycle_stops_instead_of_spinning(self):
        start = time.perf_counter()
        res = power_iteration_rho(SignlessLaplacianTensor(cycle_plus_pendant(3000)), tol=1e-10)
        assert time.perf_counter() - start < 10.0
        assert not res.converged and res._underflow and res.iterations < 1_000_000
        assert contains(res.lower, res.upper, self.Q_LIMIT)
        x = res.eigenvector
        assert x.max() == 1.0 and x.min() >= np.finfo(float).tiny

    def test_pendant_cycle_in_range_still_converges(self):
        # Its least entry stays near 1e-209.
        res = power_iteration_rho(AdjacencyTensor(cycle_plus_pendant(4000)), tol=1e-10)
        assert res.converged and not res._underflow and res.iterations == 29_688
        assert contains(res.lower, res.upper, math.sqrt(2.0 + math.sqrt(5.0)))

    def test_anderson_mix_below_range_gives_the_power_step(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "solve", lambda m, b: np.zeros(len(b)))  # the mix is g
        mixer = tensors._AndersonMixer(4, 3)
        x = np.ones(4)
        for i in range(tensors._ANDERSON_DEPTH + 1):
            x = mixer.propose(x, np.array([1.0, 0.5, 0.25, 0.5 + i / 100]))
        g = np.array([1.0, 0.5, 0.25, 0.5])
        step = mixer.propose(x, g)
        assert step is not g and np.array_equal(step, g)
        # At k = 3 x^{[2]} underflows below about 1.5e-154.
        g = np.array([1.0, 0.5, 1e-155, 0.5])
        assert mixer.propose(x, g) is g


@st.composite
def connected_bases(draw):
    """A random spanning tree plus random extra edges on 2..8 vertices."""
    n = draw(st.integers(2, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    return SimpleGraph(n, tuple(edges))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(connected_bases(), st.sampled_from((4, 6)))
def test_blow_up_radii_agree_with_eigvalsh(g, k):
    h, _ = generalized_power(g, k, k // 2)
    for cls, oracle in ((AdjacencyTensor, eig_rho_adjacency), (SignlessLaplacianTensor, eig_rho_signless)):
        res = power_iteration_rho(cls(h), tol=1e-12)
        assert res.converged
        assert abs(res.rho - oracle(g)) <= 1e-9
