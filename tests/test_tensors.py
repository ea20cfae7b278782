import math
import random

import numpy as np
import pytest

from hypergraph_spectra import (
    AdjacencyTensor,
    DenseTensor,
    Hypergraph,
    SignlessLaplacianTensor,
    SpectralResult,
    caterpillar,
    check_subsolution,
    cycle_graph,
    cycle_plus_pendant,
    degree,
    generalized_power,
    half_edge_constancy,
    identity_tensor,
    lift_vector,
    path_graph,
    power_iteration_rho,
    rho_adjacency_matrix,
    rho_bounds,
    rho_signless_laplacian_matrix,
    row_sums,
    s_cycle,
    s_path,
    s_ratios,
    txk,
    weakly_irreducible,
)
from hypergraph_spectra.tensors import _tarjan_scc

from helpers import add_at_apply, cooccurrence_arcs

DISJOINT_PAIR = Hypergraph(4, 8, ((0, 1, 2, 3), (4, 5, 6, 7)))


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
        assert txk(t, [1.0, 2.0, 3.0]) == 18.0

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
        d = np.array([degree(h, v) for v in range(h.n)], dtype=float)
        np.testing.assert_allclose(q, a + d * x ** (h.k - 1), rtol=1e-12)


class TestRowSums:
    def test_adjacency_row_sums_are_degrees(self):
        h, bmap = generalized_power(cycle_plus_pendant(4), 4, 2)
        rs = row_sums(AdjacencyTensor(h))
        base_deg = {0: 1, 1: 3, 2: 2, 3: 2}
        for v, block in enumerate(bmap.vertex_blocks):
            for u in block:
                assert rs[u] == base_deg[v]

    def test_signless_doubles_them(self):
        h = s_path(4, 2, 2)
        np.testing.assert_array_equal(
            row_sums(SignlessLaplacianTensor(h)),
            2.0 * row_sums(AdjacencyTensor(h)),
        )

    def test_bounds_bracket(self):
        assert rho_bounds(AdjacencyTensor(s_path(4, 2, 2))) == (1.0, 2.0)
        assert rho_bounds(SignlessLaplacianTensor(s_cycle(4, 2, 3))) == (4.0, 4.0)


class TestDenseTensor:
    def test_all_ones_cubic(self):
        t = DenseTensor(np.ones((3, 3, 3)))
        np.testing.assert_allclose(t.apply([1.0, 1.0, 1.0]), [9.0, 9.0, 9.0])
        assert row_sums(t).tolist() == [9.0, 9.0, 9.0]

    def test_identity_applies_entrywise_power(self):
        t = identity_tensor(4, 3)
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(t.apply(x), x**3)

    def test_caps_and_validation(self):
        with pytest.raises(ValueError):
            DenseTensor(np.zeros((2,) * 5))  # order cap
        with pytest.raises(ValueError):
            DenseTensor(np.zeros((7, 7)))  # dimension cap
        with pytest.raises(ValueError):
            DenseTensor(np.zeros((2, 3)))  # not cubical
        with pytest.raises(ValueError):
            DenseTensor([[0.0, -1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            DenseTensor([[np.nan, 0.0], [0.0, 0.0]])


class TestApplyMatchesAddAtReference:
    def test_bit_identical_on_random_hypergraphs(self):
        rng = random.Random(31)
        nrng = np.random.default_rng(31)
        for k in (2, 3, 4, 6):
            for _ in range(10):
                n = rng.randrange(k, 40)
                h = random_hypergraph(rng, k, n, rng.randrange(0, 3 * n))
                x = nrng.uniform(0.0, 2.0, size=n)
                x[nrng.random(n) < 0.2] = 0.0
                ref = add_at_apply(h, x)
                assert np.array_equal(AdjacencyTensor(h).apply(x), ref)
                deg = np.array([degree(h, v) for v in range(n)], dtype=float)
                signless = SignlessLaplacianTensor(h).apply(x)
                assert np.array_equal(signless, ref + deg * x ** (k - 1))

    def test_bit_identical_on_a_lift(self):
        h, _ = generalized_power(caterpillar([2, 0, 3]), 4, 2)
        x = np.random.default_rng(4).uniform(0.1, 1.0, size=h.n)
        assert np.array_equal(AdjacencyTensor(h).apply(x), add_at_apply(h, x))

    def test_edgeless_gives_zeros(self):
        h = Hypergraph(4, 3)
        assert np.array_equal(AdjacencyTensor(h).apply(np.ones(3)), np.zeros(3))


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


class TestWeakIrreducibility:
    def test_connected_hypergraph_yes(self):
        assert weakly_irreducible(AdjacencyTensor(s_cycle(4, 2, 3)))
        assert weakly_irreducible(SignlessLaplacianTensor(s_path(6, 3, 2)))

    def test_disconnected_hypergraph_no(self):
        assert not weakly_irreducible(AdjacencyTensor(DISJOINT_PAIR))

    def test_diagonal_tensor_no(self):
        assert not weakly_irreducible(identity_tensor(3, 3))

    def test_one_way_arc_no(self):
        table = np.zeros((2, 2, 2))
        table[0, 1, 1] = 1.0
        assert not weakly_irreducible(DenseTensor(table))

    def test_cyclic_shift_yes(self):
        table = np.zeros((3, 3, 3))
        for i in range(3):
            j = (i + 1) % 3
            table[i, j, j] = 1.0
        assert weakly_irreducible(DenseTensor(table))


class TestPowerIteration:
    def test_regular_lift_converges_immediately_and_exactly(self):
        h = s_cycle(4, 2, 3)
        res = power_iteration_rho(AdjacencyTensor(h))
        assert res.rho == 2.0 and res.iterations == 1 and res.converged
        assert res.residual == 0.0

    def test_single_edge_values(self):
        h = s_path(6, 3, 1)
        assert power_iteration_rho(AdjacencyTensor(h)).rho == 1.0
        assert power_iteration_rho(SignlessLaplacianTensor(h)).rho == 2.0

    def test_sunflower_closed_form(self):
        # r edges pairwise meeting in one vertex: rho(A)^k = r
        for k, r in [(4, 3), (4, 5), (6, 3)]:
            h, _ = generalized_power(caterpillar([r]), k, 1)
            res = power_iteration_rho(AdjacencyTensor(h))
            assert math.isclose(res.rho, r ** (1.0 / k), rel_tol=0, abs_tol=1e-9)

    def test_rank_one_dense_closed_form(self):
        a = np.array([1.0, 2.0, 0.5, 3.0])
        t = DenseTensor(np.einsum("i,j,k->ijk", a, a, a))
        res = power_iteration_rho(t)
        expected = float(np.sum(a**1.5) ** 2)
        assert math.isclose(res.rho, expected, rel_tol=1e-10)
        vec = np.sqrt(a)
        np.testing.assert_allclose(res.eigenvector, vec / vec.max(), atol=1e-8)

    def test_cyclic_shift_spectral_radius_one(self):
        table = np.zeros((3, 3, 3))
        for i in range(3):
            j = (i + 1) % 3
            table[i, j, j] = 1.0
        assert power_iteration_rho(DenseTensor(table)).rho == 1.0

    def test_matches_matrix_radius_through_blowup(self):
        g = cycle_plus_pendant(4)
        rho_a, _ = rho_adjacency_matrix(g, tol=1e-12)
        rho_q, _ = rho_signless_laplacian_matrix(g, tol=1e-12)
        for k in (4, 6):
            h, _ = generalized_power(g, k, k // 2)
            res_a = power_iteration_rho(AdjacencyTensor(h))
            res_q = power_iteration_rho(SignlessLaplacianTensor(h))
            assert abs(res_a.rho - rho_a) <= 1e-9
            assert abs(res_q.rho - rho_q) <= 1e-9

    def test_cored_blowup_changes_the_radius(self):
        # with fresh vertices per edge the base radius is not preserved
        g = caterpillar([3])  # star, matrix radius sqrt(3)
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
        assert res.residual > 0

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            power_iteration_rho(AdjacencyTensor(DISJOINT_PAIR))

    def test_bad_controls_rejected(self):
        t = AdjacencyTensor(s_cycle(4, 2, 3))
        with pytest.raises(ValueError):
            power_iteration_rho(t, tol=0.0)
        with pytest.raises(ValueError):
            power_iteration_rho(t, max_iter=0)

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


class TestRatiosAndSubsolutions:
    def test_ratios_at_ones_are_row_sums(self):
        t = AdjacencyTensor(s_path(4, 2, 2))
        np.testing.assert_array_equal(s_ratios(t, np.ones(6)), row_sums(t))

    def test_ratios_need_positive_vector(self):
        t = AdjacencyTensor(s_path(4, 2, 2))
        with pytest.raises(ValueError):
            s_ratios(t, [1.0, 0.0, 1.0, 1.0, 1.0, 1.0])

    def test_strictly_below_certificate(self):
        t = AdjacencyTensor(s_path(4, 2, 2))
        assert check_subsolution(t, np.ones(6), 2.5) == "strictly-below"

    def test_strictly_above_certificate(self):
        t = AdjacencyTensor(s_path(4, 2, 2))
        assert check_subsolution(t, np.ones(6), 0.5) == "strictly-above"

    def test_exact_eigenvector_is_inconclusive(self):
        t = AdjacencyTensor(s_cycle(4, 2, 3))
        assert check_subsolution(t, np.ones(6), 2.0) == "inconclusive"

    def test_mixed_signs_inconclusive(self):
        t = DenseTensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert check_subsolution(t, [1.0, 2.0], 1.0) == "inconclusive"

    def test_rejects_bad_test_vectors(self):
        t = AdjacencyTensor(s_cycle(4, 2, 3))
        with pytest.raises(ValueError):
            check_subsolution(t, np.zeros(6), 1.0)
        with pytest.raises(ValueError):
            check_subsolution(t, -np.ones(6), 1.0)


class TestEntrywiseMonotonicity:
    def test_larger_entries_larger_radius(self):
        rng = np.random.default_rng(17)
        big = rng.uniform(0.5, 1.0, size=(4, 4, 4))
        small = big.copy()
        small[0, 1, 2] *= 0.25
        rho_big = power_iteration_rho(DenseTensor(big)).rho
        rho_small = power_iteration_rho(DenseTensor(small)).rho
        assert rho_small < rho_big
        assert power_iteration_rho(DenseTensor(big.copy())).rho == rho_big


class TestLifting:
    def test_lift_takes_block_roots(self):
        _, bmap = generalized_power(path_graph(2), 4, 2)
        np.testing.assert_allclose(
            lift_vector([1.0, 4.0], bmap), [1.0, 1.0, 2.0, 2.0]
        )

    def test_lifted_matrix_eigenvector_solves_tensor_equation(self):
        g = cycle_plus_pendant(4)
        rho, x = rho_adjacency_matrix(g, tol=1e-13)
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


class TestHalfEdgeConstancy:
    def test_computed_eigenvector_is_block_constant(self):
        h, bmap = generalized_power(cycle_plus_pendant(5), 4, 2)
        res = power_iteration_rho(AdjacencyTensor(h))
        assert half_edge_constancy(res, bmap) <= 1e-9

    def test_detects_broken_symmetry(self):
        h, bmap = generalized_power(path_graph(2), 4, 2)
        vec = np.array([1.0, 0.5, 1.0, 1.0])
        fake = SpectralResult(1.0, vec, 1, 0.0, True, 1.0, 1.0)
        assert half_edge_constancy(fake, bmap) == 0.5

    def test_rejects_wrong_length(self):
        _, bmap = generalized_power(path_graph(2), 4, 2)
        fake = SpectralResult(1.0, np.ones(3), 1, 0.0, True, 1.0, 1.0)
        with pytest.raises(ValueError):
            half_edge_constancy(fake, bmap)
