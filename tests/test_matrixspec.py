import math
from fractions import Fraction

import numpy as np
import pytest

from hypergraph_spectra import (
    Hypergraph,
    SimpleGraph,
    alpha_n,
    beta_n,
    cycle_graph,
    cycle_plus_pendant,
    limit_point_table,
    pendant_cycle_rho_sequence,
    rho_adjacency_matrix,
    rho_signless_laplacian_matrix,
    t_graph,
    tau_threshold,
)
from hypergraph_spectra import matrixspec

from helpers import adjacency_matrix, eig_rho_adjacency, eig_rho_signless, path_graph

# From an independent high-precision eigenvalue computation.
PAW_RHO_A = 2.170086486626033
PAW_RHO_Q = 4.561552812808831
C5E_RHO_A = 2.114907541476756
C5E_RHO_Q = 4.438283239402897

BETA_REFERENCE = {
    2: 1.3247179572447460,
    3: 1.4655712318767680,
    5: 1.5701473121960544,
    10: 1.6143068232571485,
    20: 1.6180044136171245,
    40: 1.6180339867955131,
}

TAU_32 = 2.0581710272714922


class TestRho:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_path_closed_form(self, n):
        rho = rho_adjacency_matrix(path_graph(n)).rho
        assert abs(rho - 2.0 * math.cos(math.pi / (n + 1))) <= 1e-9

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycle_is_two_regular(self, n):
        rho = rho_adjacency_matrix(cycle_graph(n)).rho
        assert rho == 2.0  # row sums constant, bracket closes instantly

    @pytest.mark.parametrize("n", range(2, 9))
    def test_signless_path_closed_form(self, n):
        rho = rho_signless_laplacian_matrix(path_graph(n)).rho
        assert abs(rho - (2.0 + 2.0 * math.cos(math.pi / n))) <= 1e-9

    @pytest.mark.parametrize("n", range(3, 9))
    def test_signless_cycle_is_four(self, n):
        rho = rho_signless_laplacian_matrix(cycle_graph(n)).rho
        assert rho == 4.0

    def test_single_vertex(self):
        assert rho_adjacency_matrix(path_graph(1)).rho == 0.0
        assert rho_signless_laplacian_matrix(path_graph(1)).rho == 0.0

    def test_frozen_small_graphs(self):
        assert abs(rho_adjacency_matrix(cycle_plus_pendant(4)).rho - PAW_RHO_A) <= 1e-9
        assert abs(rho_signless_laplacian_matrix(cycle_plus_pendant(4)).rho - PAW_RHO_Q) <= 1e-9
        assert abs(rho_adjacency_matrix(cycle_plus_pendant(6)).rho - C5E_RHO_A) <= 1e-9
        assert abs(rho_signless_laplacian_matrix(cycle_plus_pendant(6)).rho - C5E_RHO_Q) <= 1e-9

    def test_agrees_with_dense_solver(self):
        cases = [
            cycle_plus_pendant(5),
            t_graph(7),
            SimpleGraph(5, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4))),
            SimpleGraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3))),
        ]
        for g in cases:
            rho_a = rho_adjacency_matrix(g).rho
            rho_q = rho_signless_laplacian_matrix(g).rho
            assert abs(rho_a - eig_rho_adjacency(g)) <= 1e-9
            assert abs(rho_q - eig_rho_signless(g)) <= 1e-9

    def test_eigenvector_quality(self):
        g = t_graph(8)
        res = rho_adjacency_matrix(g, tol=1e-12)
        rho, x = res.rho, res.eigenvector
        assert np.all(x > 0) and x.max() == 1.0
        resid = np.max(np.abs(adjacency_matrix(g) @ x - rho * x))
        assert resid <= 1e-10

    def test_disconnected_rejected(self):
        g = SimpleGraph(4, ((0, 1), (2, 3)))
        with pytest.raises(ValueError):
            rho_adjacency_matrix(g)
        with pytest.raises(ValueError):
            rho_signless_laplacian_matrix(g)

    def test_iteration_budget_enforced(self):
        res = rho_adjacency_matrix(path_graph(6), tol=1e-14, max_iter=2)
        assert res.converged is False and res.iterations == 2

    @pytest.mark.parametrize("k", [3, 4])
    def test_hypergraphs_other_than_graphs_rejected(self, k):
        h = Hypergraph(k, k + 1, (tuple(range(k)), tuple(range(1, k + 1))))
        for rho_fn in (rho_adjacency_matrix, rho_signless_laplacian_matrix):
            with pytest.raises(ValueError, match=f"k = {k}"):
                rho_fn(h)

    def test_two_uniform_hypergraph_counts_as_its_graph(self):
        g = cycle_plus_pendant(4)
        for rho_fn in (rho_adjacency_matrix, rho_signless_laplacian_matrix):
            ours, theirs = rho_fn(g), rho_fn(Hypergraph(2, g.n, g.edges))
            assert ours.rho == theirs.rho
            assert np.array_equal(ours.eigenvector, theirs.eigenvector)

    @pytest.mark.parametrize("controls", [{"tol": math.nan}, {"tol": math.inf}, {"max_iter": 0}])
    def test_bad_controls_rejected(self, controls):
        with pytest.raises(ValueError):
            rho_adjacency_matrix(path_graph(6), **controls)
        with pytest.raises(ValueError):
            rho_signless_laplacian_matrix(path_graph(6), **controls)

    def test_tol_below_double_resolution_rejected(self):
        with pytest.raises(ValueError, match="tol"):
            rho_adjacency_matrix(path_graph(6), tol=1e-17)
        with pytest.raises(ValueError, match="tol"):
            rho_signless_laplacian_matrix(path_graph(6), tol=1e-300)


def poly_value(n: int, x: Fraction) -> Fraction:
    """x^{n+1} - (1 + x + ... + x^{n-1}) in exact arithmetic."""
    return x ** (n + 1) - sum(x**i for i in range(n))


class TestNodaSteps:
    @pytest.mark.parametrize("failure", ["singular", "nonpositive", "underflow"])
    @pytest.mark.parametrize(
        "rho_fn, oracle",
        [
            (rho_adjacency_matrix, eig_rho_adjacency),
            (rho_signless_laplacian_matrix, eig_rho_signless),
        ],
    )
    def test_failed_solve_falls_back_to_power_steps(self, monkeypatch, failure, rho_fn, oracle):
        g = cycle_plus_pendant(12)
        calls = []

        def broken(m, b):
            calls.append(m.shape)
            if failure == "singular":
                raise np.linalg.LinAlgError("singular matrix")
            if failure == "underflow":  # positive, but below the normal double range
                return np.where(np.arange(len(b)) == 0, 1e-310, 1.0)
            return -np.ones_like(b)

        monkeypatch.setattr(np.linalg, "solve", broken)
        res = rho_fn(g, tol=1e-12)
        rho, vec = res.rho, res.eigenvector
        assert calls
        assert abs(rho - oracle(g)) <= 1e-10
        assert vec.max() == 1.0 and np.all(vec > 0)

    def test_pendant_cycles_at_tight_tol(self):
        # The plain power iteration needs between 100 and 1000 steps here
        # for n = 5, and more than 1000 for n = 20 and 50.
        for n in (5, 20, 50):
            g = cycle_plus_pendant(2 * n + 2)
            res = rho_adjacency_matrix(g, tol=1e-13, max_iter=100)
            assert res.converged and abs(res.rho - eig_rho_adjacency(g)) <= 1e-12


class TestBetaRoots:
    def test_first_root_is_one(self):
        assert beta_n(1) == 1.0

    @pytest.mark.parametrize("n", sorted(BETA_REFERENCE))
    def test_frozen_reference_values(self, n):
        assert abs(beta_n(n) - BETA_REFERENCE[n]) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 7, 12, 20, 25])
    def test_exact_polynomial_residual(self, n):
        # Fraction(float) is exact, so this checks the defining polynomial
        # without any floating-point cancellation.
        b = Fraction(beta_n(n))
        assert abs(poly_value(n, b)) <= Fraction(1, 10**9)

    def test_root_is_simple_sign_change(self):
        for n in (2, 5, 10):
            b = beta_n(n)
            assert poly_value(n, Fraction(b) - Fraction(1, 10**6)) < 0
            assert poly_value(n, Fraction(b) + Fraction(1, 10**6)) > 0

    def test_golden_ratio_identity(self):
        # In Z[tau] with tau^2 = tau + 1, the polynomial sends tau to tau
        # for every n; this pins the family the threshold comes from.
        def mul(p, q):
            a, b = p
            c, d = q
            return (a * c + b * d, a * d + b * c + b * d)

        for n in range(1, 31):
            power = (1, 0)
            total = (0, 0)
            for _ in range(n):
                total = (total[0] + power[0], total[1] + power[1])
                power = mul(power, (0, 1))
            power = mul(power, (0, 1))  # now tau^{n+1}
            value = (power[0] - total[0], power[1] - total[1])
            assert value == (0, 1)

    def test_converges_to_golden_ratio(self):
        tau = (1.0 + math.sqrt(5.0)) / 2.0
        gap = tau - beta_n(40)
        assert 0.0 < gap < 1e-8

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            beta_n(0)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", None])
    def test_rejects_non_integer_index(self, n):
        with pytest.raises(ValueError, match="integer"):
            beta_n(n)

    def test_numpy_integer_index(self):
        assert beta_n(np.int64(5)) == beta_n(5)


class TestAlphaSequence:
    def test_first_value_exact(self):
        assert alpha_n(1) == 2.0

    def test_strictly_increasing_below_threshold(self):
        thr = tau_threshold()
        values = [alpha_n(n) for n in range(1, 41)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < thr for v in values)
        assert thr - values[-1] < 1e-6

    def test_threshold_value(self):
        thr = tau_threshold()
        assert abs(thr - TAU_32) <= 1e-14
        tau = (1.0 + math.sqrt(5.0)) / 2.0
        assert abs(thr - tau**1.5) <= 1e-14


class TestLimitPointTable:
    def test_rows(self):
        rows = limit_point_table(5)
        assert len(rows) == 5
        assert rows[0] == (1, 1.0, 2.0)
        ns = [r[0] for r in rows]
        assert ns == [1, 2, 3, 4, 5]

    def test_rows_are_the_root_functions(self):
        # Each alpha comes from the beta already in its row.
        rows = limit_point_table(64)
        assert rows == tuple((n, beta_n(n), alpha_n(n)) for n in range(1, 65))

    def test_each_root_bisected_once(self, monkeypatch):
        calls = []
        root = matrixspec.beta_n
        monkeypatch.setattr(matrixspec, "beta_n", lambda n: calls.append(n) or root(n))
        limit_point_table(10)
        assert calls == list(range(1, 11))

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            limit_point_table(65)
        with pytest.raises(ValueError):
            limit_point_table(0)


class TestPendantCycleSequence:
    def test_starts_at_paw(self):
        seq = pendant_cycle_rho_sequence(3)
        assert seq[0][0] == 1
        assert abs(seq[0][1] - PAW_RHO_A) <= 1e-9

    def test_strictly_decreasing_above_threshold(self):
        seq = pendant_cycle_rho_sequence(8)
        values = [v for _, v in seq]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > tau_threshold() for v in values)

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            pendant_cycle_rho_sequence(0)

    def test_prolonged_vector(self):
        for n, res in matrixspec._pendant_cycle_solves(50, 1e-10, 1_000_000):
            x = res.eigenvector
            p = matrixspec._prolonged(x)
            assert len(p) == 2 * n + 4 and (p > 0).all() and p.max() == 1.0
            assert list(p) == list(x[: n + 2]) + [x[n + 1], x[n + 2]] + list(x[n + 2 :])

    def test_each_cycle_starts_from_the_last(self, monkeypatch):
        solve = matrixspec.power_iteration_rho
        runs = []

        def recorded(t, tol, max_iter, *, start):
            runs.append((start, solve(t, tol, max_iter, start=start)))
            return runs[-1][1]

        monkeypatch.setattr(matrixspec, "power_iteration_rho", recorded)
        pendant_cycle_rho_sequence(6, tol=1e-13)
        assert runs[0][0] is None
        for (_, before), (start, _) in zip(runs, runs[1:]):
            assert np.array_equal(start, matrixspec._prolonged(before.eigenvector))

    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    def test_warm_radii_agree_with_cold_ones(self, tol):
        warm_steps = cold_steps = 0
        for n, res in matrixspec._pendant_cycle_solves(50, tol, 1_000_000):
            cold = rho_adjacency_matrix(cycle_plus_pendant(2 * n + 2), tol=tol)
            assert res.converged and abs(res.rho - cold.rho) <= tol * cold.rho
            warm_steps += res.iterations
            cold_steps += cold.iterations
        # 228 against 452 steps at tol 1e-13.
        assert warm_steps < 0.75 * cold_steps
