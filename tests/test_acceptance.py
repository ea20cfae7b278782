"""End-to-end acceptance checks for the package's headline guarantees.

One test per criterion. Each prints a single [PASS]/[FAIL] line naming the
tolerance it enforces and the runtime against its budget (visible with
pytest -s; a budget of None means the criterion carries no time limit).
Reference values come from independent oracles: exhaustive 2^n searches,
dense symmetric eigensolvers, closed forms, and 60-digit characteristic
polynomial root isolation.
"""

import math
import random
import time

import mpmath as mp
import numpy as np
import pytest

from hypergraph_spectra import (
    AdjacencyTensor,
    SignlessLaplacianTensor,
    SimpleGraph,
    convergence_report,
    cycle_graph,
    cycle_plus_pendant,
    enumerate_connected_graphs,
    generalized_power,
    half_edge_constancy,
    lift_vector,
    limit_point_table,
    min_rho_search,
    odd_bipartition,
    pendant_cycle_rho_sequence,
    power_iteration_rho,
    rho_adjacency_matrix,
    rho_bounds,
    rho_signless_laplacian_matrix,
    s_cycle,
    s_path,
    subdivide,
    tau_threshold,
    verify_odd_bipartition,
    verify_theorem_nob,
)

from helpers import brute_odd_bipartite, canonical_form, remove_edge


def report(num: int, label: str, tolerance: str, budget: float | None, start: float):
    elapsed = time.perf_counter() - start
    within = budget is None or elapsed < budget
    verdict = "PASS" if within else "FAIL"
    limit = "no budget" if budget is None else f"{budget:g}s budget"
    print(f"criterion {num:02d} [{verdict}] {label} (tolerance: {tolerance}) "
          f"[{elapsed:.2f}s, {limit}]")
    assert within, f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_01_parity_families():
    t0 = time.perf_counter()
    for k in (4, 6):
        for m in range(3, 9):
            h, _ = generalized_power(cycle_graph(m), k, k // 2)
            cert = odd_bipartition(h)
            assert (cert is not None) == (m % 2 == 0), (k, m)
            if cert is not None:
                assert verify_odd_bipartition(h, cert)
    cert = odd_bipartition(s_cycle(4, 3, 8))
    assert cert is not None and verify_odd_bipartition(s_cycle(4, 3, 8), cert)
    assert odd_bipartition(s_cycle(4, 3, 6)) is None
    for k in (4, 6):
        for s in range(1, k):
            for d in range(1, 7):
                h = s_path(k, s, d)
                cert = odd_bipartition(h)
                assert cert is not None, (k, s, d)
                assert verify_odd_bipartition(h, cert)
    report(1, "odd-bipartite families by parity", "exact", 1.0, t0)


def test_criterion_02_blowup_parity_exhaustive():
    t0 = time.perf_counter()
    # one- and two-vertex bases by hand, then every class on 3..7 vertices
    for k in (4, 6):
        lone, _ = generalized_power(SimpleGraph(1, ()), k, k // 2)
        assert odd_bipartition(lone) is not None  # no edges, base bipartite
        edge, _ = generalized_power(SimpleGraph(2, ((0, 1),)), k, k // 2)
        assert odd_bipartition(edge) is not None
    result = verify_theorem_nob(7)
    assert result.passed
    assert [(row[0], row[1]) for row in result.rows] == [
        (n, k) for n in range(3, 8) for k in (4, 6)
    ]
    assert all(row[4] == 0 for row in result.rows)
    assert sum(row[2] for row in result.rows) == 2 * (2 + 6 + 21 + 112 + 853)
    report(2, "blow-up odd-bipartite exactly when base bipartite, n <= 7",
           "exact, zero mismatches", 300.0, t0)


def _parity_corpus():
    cases = []
    for m in range(3, 9):
        cases.append(generalized_power(cycle_graph(m), 4, 2)[0])
    for m in range(3, 6):
        cases.append(generalized_power(cycle_graph(m), 6, 3)[0])
    cases.append(generalized_power(cycle_plus_pendant(4), 4, 2)[0])
    cases.append(generalized_power(cycle_plus_pendant(6), 4, 2)[0])
    for d in range(6, 13):
        cases.append(s_cycle(4, 3, d))
    for d in range(3, 9):
        cases.append(s_cycle(4, 2, d))
    for d in (7, 8, 9, 10):
        cases.append(s_cycle(6, 5, d))
    cases.append(s_cycle(6, 4, 5))
    for s in (1, 2, 3):
        for d in range(1, 5):
            h = s_path(4, s, d)
            if h.n <= 16:
                cases.append(h)
    for s in range(1, 6):
        h = s_path(6, s, 2)
        if h.n <= 16:
            cases.append(h)
    cases.append(generalized_power(cycle_graph(3), 4, 1)[0])
    cases.append(generalized_power(cycle_plus_pendant(4), 4, 1)[0])
    cases.append(generalized_power(cycle_graph(3), 6, 2)[0])
    cases.append(generalized_power(cycle_graph(3), 6, 1)[0])
    # rank-2 sanity: odd-bipartite must mean bipartite
    from hypergraph_spectra import Hypergraph

    cases.append(Hypergraph(2, 4, cycle_graph(4).edges))
    cases.append(Hypergraph(2, 5, cycle_graph(5).edges))
    rng = random.Random(1609)
    for _ in range(8):
        n = rng.choice([10, 12, 14, 16])
        m = rng.randrange(4, 11)
        edges = set()
        while len(edges) < m:
            edges.add(tuple(sorted(rng.sample(range(n), 4))))
        cases.append(Hypergraph(4, n, tuple(edges)))
    for _ in range(4):
        n = rng.choice([12, 15])
        m = rng.randrange(3, 7)
        edges = set()
        while len(edges) < m:
            edges.add(tuple(sorted(rng.sample(range(n), 6))))
        cases.append(Hypergraph(6, n, tuple(edges)))
    return cases


def test_criterion_03_parity_solver_vs_brute_force():
    t0 = time.perf_counter()
    corpus = _parity_corpus()
    assert all(h.n <= 16 and h.k % 2 == 0 for h in corpus)
    assert len(corpus) >= 50
    for h in corpus:
        cert = odd_bipartition(h)
        assert (cert is not None) == brute_odd_bipartite(h), h
        if cert is not None:
            assert verify_odd_bipartition(h, cert)
            assert cert.part_one | cert.part_two == set(range(h.n))
    report(3, f"parity solver vs 2^n search on {len(corpus)} hypergraphs, n <= 16",
           "exact", 60.0, t0)


def test_criterion_04_blowup_preserves_radius():
    t0 = time.perf_counter()
    checked = 0
    for k in (4, 6):
        # the one-vertex base blows up to an edgeless hypergraph: its
        # radius is pinned to 0 by the row-sum bounds, matching the matrix
        lone, _ = generalized_power(SimpleGraph(1, ()), k, k // 2)
        assert rho_bounds(AdjacencyTensor(lone)) == (0.0, 0.0)
        assert rho_adjacency_matrix(SimpleGraph(1, ())).rho == 0.0
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            pairs = (
                (AdjacencyTensor, rho_adjacency_matrix),
                (SignlessLaplacianTensor, rho_signless_laplacian_matrix),
            )
            for tensor_cls, matrix_fn in pairs:
                matrix = matrix_fn(g, tol=1e-12)
                rho_m, vec = matrix.rho, matrix.eigenvector
                for k in (4, 6):
                    h, bmap = generalized_power(g, k, k // 2)
                    t = tensor_cls(h)
                    result = power_iteration_rho(t, tol=1e-10)
                    assert result.converged
                    assert abs(result.rho - rho_m) <= 1e-8, (n, k, t.kind)
                    z = lift_vector(vec, bmap)
                    resid = float(
                        np.max(np.abs(t.apply(z) - rho_m * z ** (k - 1)))
                    )
                    assert resid <= 1e-8, (n, k, t.kind)
                    assert half_edge_constancy(result, bmap) <= 1e-8
                    checked += 1
    assert checked == 2 * 2 * (1 + 2 + 6 + 21 + 112)
    report(4, "blow-up preserves spectral radius on all bases with n <= 6",
           "1e-8 on radius, residual, block constancy", 600.0, t0)


def test_criterion_05_known_radii():
    t0 = time.perf_counter()
    for k in (4, 6):
        edge = s_path(k, k - 1, 1)
        assert abs(power_iteration_rho(AdjacencyTensor(edge)).rho - 1.0) <= 1e-8
    four_edge = s_path(4, 3, 1)
    assert abs(power_iteration_rho(SignlessLaplacianTensor(four_edge)).rho - 2.0) <= 1e-8
    triangle_lift = s_cycle(4, 2, 3)
    assert abs(power_iteration_rho(AdjacencyTensor(triangle_lift)).rho - 2.0) <= 1e-8
    for n in range(3, 9):
        assert abs(rho_signless_laplacian_matrix(cycle_graph(n)).rho - 4.0) <= 1e-8
    for k in (4, 6):
        for n in (3, 4, 5):
            h, _ = generalized_power(cycle_graph(n), k, k // 2)
            assert abs(power_iteration_rho(SignlessLaplacianTensor(h)).rho - 4.0) <= 1e-8
    report(5, "regular-case radii match their known values", "1e-8", None, t0)


def _random_cyclic_base(rng: random.Random) -> SimpleGraph:
    from hypergraph_spectra import is_connected

    while True:
        n = rng.randrange(4, 7)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        m = rng.randrange(n, min(n + 4, len(pairs) + 1))
        g = SimpleGraph(n, tuple(rng.sample(pairs, m)))
        if is_connected(g):
            return g  # m >= n forces a cycle, so a non-bridge edge exists


def test_criterion_06_row_sum_bounds_and_monotonicity():
    from hypergraph_spectra import is_connected

    t0 = time.perf_counter()
    rng = random.Random(40417)
    regular_seen = irregular_seen = 0
    for case in range(200):
        base = cycle_graph(rng.randrange(3, 8)) if case % 10 == 0 else _random_cyclic_base(rng)
        k = 4 if case % 2 == 0 else 6
        h, _ = generalized_power(base, k, k // 2)
        cut = next(
            i for i in range(base.m) if is_connected(remove_edge(base, i))
        )
        reduced, _ = generalized_power(remove_edge(base, cut), k, k // 2)
        assert reduced.n == h.n  # removal keeps the vertex set spanning
        for tensor_cls in (AdjacencyTensor, SignlessLaplacianTensor):
            t = tensor_cls(h)
            lo, hi = rho_bounds(t)
            rho = power_iteration_rho(t, tol=1e-10).rho
            assert lo - 1e-9 <= rho <= hi + 1e-9
            if lo == hi:
                assert abs(rho - hi) <= 1e-9  # regular: equality
                regular_seen += 1
            else:
                assert rho < hi - 1e-9 and rho > lo + 1e-9
                irregular_seen += 1
            rho_cut = power_iteration_rho(tensor_cls(reduced), tol=1e-10).rho
            assert rho_cut < rho - 1e-9
    assert regular_seen >= 20 and irregular_seen >= 20
    report(6, "row-sum bounds, equality iff regular, strict drop on edge removal "
              "(200 random lifts)", "1e-9 margins", 600.0, t0)


def test_criterion_07_extremal_minimizers():
    t0 = time.perf_counter()
    # tie window 10 * tol = 1e-8, the uniqueness margin
    expected = {
        5: canonical_form(cycle_graph(5)),
        6: canonical_form(cycle_plus_pendant(6)),
        7: canonical_form(cycle_graph(7)),
    }
    known_rho = {
        ("adjacency", 5): 2.0,
        ("signless-laplacian", 5): 4.0,
        ("adjacency", 7): 2.0,
        ("signless-laplacian", 7): 4.0,
    }
    for n in (5, 6, 7):
        for operator in ("adjacency", "signless-laplacian"):
            best, argmin = min_rho_search(n, operator=operator, tol=1e-9)
            assert len(argmin) == 1, (n, operator)
            assert argmin[0] == expected[n], (n, operator)
            if (operator, n) in known_rho:
                assert abs(best - known_rho[operator, n]) <= 1e-8
    report(7, "unique minimizers over connected non-bipartite graphs, n in {5,6,7}",
           "single form within 1e-8 of the minimum", 1800.0, t0)


def test_criterion_08_limit_point_sequence():
    t0 = time.perf_counter()
    alphas = [row[2] for row in limit_point_table(40)]
    assert abs(alphas[0] - 2.0) <= 1e-12
    assert all(a < b for a, b in zip(alphas, alphas[1:]))
    thr = tau_threshold()
    assert all(a < thr for a in alphas)
    assert thr - alphas[-1] < 1e-6
    report(8, "alpha_1 = 2, alpha_n strictly increasing to sqrt(2 + sqrt(5))",
           "1e-12 exactness, 1e-6 terminal gap", 1.0, t0)


def _pendant_cycle_rho_highprec(n: int):
    """rho(A(C_{2n+1} + pendant)) by 60-digit bisection on the
    characteristic polynomial, built from the path recurrence
    phi(P_j) = x phi(P_{j-1}) - phi(P_{j-2}) and the pendant expansion."""
    m = 2 * n + 1

    def charpoly(x):
        prev, cur = mp.mpf(1), x
        vals = [prev, cur]
        for _ in range(m - 1):
            prev, cur = cur, x * cur - prev
            vals.append(cur)
        cycle = vals[m] - vals[m - 2] - 2
        return x * cycle - vals[m - 1]

    lo, hi = mp.sqrt(2 + mp.sqrt(5)), mp.mpf(3)
    assert charpoly(lo) < 0 and charpoly(hi) > 0
    for _ in range(220):
        mid = (lo + hi) / 2
        if charpoly(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_criterion_09_pendant_cycle_descent():
    t0 = time.perf_counter()
    seq = pendant_cycle_rho_sequence(50, tol=1e-13)
    values = [v for _, v in seq]
    thr = tau_threshold()
    # the computed floats themselves satisfy the strict statements
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > thr for v in values)
    assert values[-1] - thr < 0.02
    # 60-digit certification: the true radii are strictly decreasing and
    # strictly above the limit, and the pipeline tracks them
    with mp.workdps(60):
        exact = [_pendant_cycle_rho_highprec(n) for n in range(1, 51)]
        thr_hp = mp.sqrt(2 + mp.sqrt(5))
        assert all(a > b for a, b in zip(exact, exact[1:]))
        assert all(v > thr_hp for v in exact)
        assert exact[-1] - thr_hp < mp.mpf("0.02")
        worst = max(abs(v - float(e)) for v, e in zip(values, exact))
    assert worst <= 1e-12
    # the proof's bound: gap below rho(deleted-edge tree) + 2/(2n+1) - limit
    bound_report = convergence_report(50, tol=1e-13)
    assert bound_report.passed
    # Perron vector ordering along the cycle for n <= 10
    for n in range(1, 11):
        g = cycle_plus_pendant(2 * n + 2)
        x = rho_adjacency_matrix(g, tol=1e-12).eigenvector
        chain = [x[v] for v in range(1, n + 2)]
        assert all(a > b for a, b in zip(chain, chain[1:])), n
    report(9, "pendant odd cycles decrease strictly to sqrt(2 + sqrt(5)); "
              "Perron ordering", "certified at 60 digits; pipeline within 1e-12",
           60.0, t0)


def test_criterion_10_subdivision_monotonicity():
    t0 = time.perf_counter()
    for n in range(4, 11):
        g = cycle_plus_pendant(n)
        inner = subdivide(g, 2, 3)  # cycle edge, on an internal path
        tail = subdivide(g, 0, 1)  # lollipop with a length-2 tail
        longer = subdivide(tail, 0, g.n)  # its terminal pendant edge
        for rho_fn in (rho_adjacency_matrix, rho_signless_laplacian_matrix):
            rho_g = rho_fn(g, tol=1e-12).rho
            rho_inner = rho_fn(inner, tol=1e-12).rho
            assert rho_inner < rho_g - 1e-9, n
            rho_tail = rho_fn(tail, tol=1e-12).rho
            rho_longer = rho_fn(longer, tol=1e-12).rho
            assert rho_longer > rho_tail + 1e-9, n
    # tensor-level agreement at k = 4 on bases with at most 6 vertices
    for n in (4, 5, 6):
        g = cycle_plus_pendant(n)
        variants = {
            "base": g,
            "inner": subdivide(g, 2, 3),
            "tail": subdivide(g, 0, 1),
        }
        for tensor_cls, matrix_fn in (
            (AdjacencyTensor, rho_adjacency_matrix),
            (SignlessLaplacianTensor, rho_signless_laplacian_matrix),
        ):
            rho_t = {}
            for name, graph in variants.items():
                h, _ = generalized_power(graph, 4, 2)
                rho_t[name] = power_iteration_rho(tensor_cls(h), tol=1e-10).rho
                rho_m = matrix_fn(graph, tol=1e-12).rho
                assert abs(rho_t[name] - rho_m) <= 1e-8, (n, name)
            assert rho_t["inner"] < rho_t["base"] - 1e-9
            assert rho_t["tail"] > rho_t["base"] + 1e-9
    report(10, "subdivision moves the radius down on internal paths, up on "
               "pendant tails, matrices and tensors alike",
           "strict with 1e-9 margin; tensor agreement 1e-8", None, t0)
