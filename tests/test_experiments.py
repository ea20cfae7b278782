import csv
import io

import pytest

from hypergraph_spectra import (
    ExperimentReport,
    ReportCheck,
    SimpleGraph,
    convergence_report,
    cycle_graph,
    cycle_plus_pendant,
    enumerate_connected_graphs,
    enumerate_connected_nonbipartite,
    experiments,
    graph_code,
    limit_point_report,
    limit_point_table,
    min_rho_report,
    min_rho_search,
    rho_adjacency_matrix,
    rho_signless_laplacian_matrix,
    tau_threshold,
    verify_theorem_nob,
)

from helpers import canonical_form, degrees, eig_rho_adjacency, eig_rho_signless
from test_matrixspec import C5E_RHO_A, PAW_RHO_A, PAW_RHO_Q
from test_tensors import deleted_edge_tree


class TestMinRhoSearch:
    def test_four_vertices_paw_wins(self):
        best, argmin = min_rho_search(4)
        assert abs(best - PAW_RHO_A) <= 1e-9
        assert len(argmin) == 1
        assert argmin[0] == canonical_form(cycle_plus_pendant(4))

    def test_five_vertices_cycle_wins(self):
        best, argmin = min_rho_search(5)
        assert abs(best - 2.0) <= 1e-9
        assert argmin == [canonical_form(cycle_graph(5))]

    def test_six_vertices_cycle_plus_chord_wins(self):
        best, argmin = min_rho_search(6)
        assert abs(best - C5E_RHO_A) <= 1e-9
        assert argmin == [canonical_form(cycle_plus_pendant(6))]

    def test_signless_same_minimizers(self):
        best, argmin = min_rho_search(4, operator="signless-laplacian")
        assert abs(best - PAW_RHO_Q) <= 1e-9
        assert argmin == [canonical_form(cycle_plus_pendant(4))]
        best5, argmin5 = min_rho_search(5, operator="signless-laplacian")
        assert abs(best5 - 4.0) <= 1e-9
        assert argmin5 == [canonical_form(cycle_graph(5))]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            min_rho_search(3)
        with pytest.raises(ValueError):
            min_rho_search(9)
        with pytest.raises(ValueError):
            min_rho_search(5, operator="laplacian")
        with pytest.raises(ValueError):
            min_rho_search(5, tol=float("nan"))
        with pytest.raises(ValueError):
            min_rho_search(5, max_iter=0)

    def test_unknown_operator_is_named(self):
        with pytest.raises(ValueError, match=r"^unknown operator 'bogus'$"):
            min_rho_search(5, operator="bogus")


ORACLES = [("adjacency", eig_rho_adjacency), ("signless-laplacian", eig_rho_signless)]
RHO = {"adjacency": rho_adjacency_matrix, "signless-laplacian": rho_signless_laplacian_matrix}


class TestDegreeBound:
    @pytest.mark.parametrize("operator, oracle", ORACLES)
    def test_between_the_average_row_sum_and_the_radius(self, operator, oracle):
        # Tight on regular graphs, where all three are equal.
        row_total = 2 if operator == "adjacency" else 4
        for n in range(2, 8):
            for g in enumerate_connected_graphs(n):
                bound = experiments._degree_bound(operator, n, graph_code(g))
                assert row_total * g.m / n - 1e-12 <= bound <= oracle(g) + 1e-12


class TestPrunedSearchMatchesFullScan:
    """min_rho_search solves only the classes its edge budget and degree
    bounds cannot exclude; a full eigvalsh scan over every class is the
    oracle."""

    # Solves, the incumbent's included, pinned so that a weaker bound shows.
    SOLVES = {
        (7, "adjacency"): 1,
        (7, "signless-laplacian"): 1,
        (8, "adjacency"): 3,
        (8, "signless-laplacian"): 20,
    }
    CLASSES = {7: 809, 8: 10935}

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("operator, oracle", ORACLES)
    def test_minimum_and_minimisers(self, monkeypatch, n, operator, oracle):
        tol = 1e-10
        solved = []
        solve = experiments.power_iteration_rho

        def recording(t, *args):
            solved.append(t.hypergraph)
            return solve(t, *args)

        monkeypatch.setattr(experiments, "power_iteration_rho", recording)
        best, argmin = min_rho_search(n, operator=operator, tol=tol)
        graphs = list(enumerate_connected_nonbipartite(n))
        radii = [oracle(g) for g in graphs]
        low = min(radii)
        assert abs(best - low) <= 1e-9
        assert argmin == [g for g, rho in zip(graphs, radii) if rho - low <= 10 * tol]
        excluded = [rho for g, rho in zip(graphs, radii) if g not in solved]
        assert all(rho > best + 10 * tol for rho in excluded)
        assert len(solved) + len(excluded) == len(graphs)
        if n in self.CLASSES:
            assert len(graphs) == self.CLASSES[n]
            assert len(solved) == self.SOLVES[n, operator]

    @pytest.mark.parametrize("operator", ["adjacency", "signless-laplacian"])
    def test_eight_vertices_build_at_most_the_budget(self, monkeypatch, operator):
        # C_7 plus a pendant edge puts U below 2.25 (A) and 4.5 (D + A), so
        # the budget is 8 edges: the 23 trees and 89 unicyclic classes. A
        # fall-back to the full level (11117 classes) fails here.
        levels, built = [], []
        enumerate_level = experiments._augmented_class_codes
        build = experiments.graph_from_code

        def recording_level(n, budget):
            levels.append(enumerate_level(n, budget))
            return levels[-1]

        def recording_build(n, code):
            built.append(code)
            return build(n, code)

        monkeypatch.setattr(experiments, "_augmented_class_codes", recording_level)
        monkeypatch.setattr(experiments, "graph_from_code", recording_build)
        min_rho_search(8, operator=operator)
        assert [len(codes) for codes in levels] == [112]
        assert len(built) <= 112

    @pytest.mark.parametrize("n", [5, 6, 7])
    @pytest.mark.parametrize("tol", [1e-10, 0.05, 0.2, 0.99])
    @pytest.mark.parametrize("operator", ["adjacency", "signless-laplacian"])
    def test_bit_identical_to_solving_every_class(self, n, tol, operator):
        # Loose tolerances widen the tie window until many classes tie, so
        # the minimisers must also come back in code order.
        radii = [
            RHO[operator](g, tol=tol).rho
            for g in enumerate_connected_nonbipartite(n)
        ]
        best = min(radii)
        graphs = enumerate_connected_nonbipartite(n)
        expected = [g for g, rho in zip(graphs, radii) if rho - best <= 10 * tol]
        assert min_rho_search(n, operator=operator, tol=tol) == (best, expected)


class TestEightVertices:
    """Criteria 07 and 02 on all 11117 connected classes of order 8."""

    @pytest.mark.parametrize("operator, oracle", ORACLES)
    def test_pendant_heptagon_is_the_unique_minimiser(self, operator, oracle):
        best, argmin = min_rho_search(8, operator=operator, tol=1e-9)
        assert argmin == [canonical_form(cycle_plus_pendant(8))]
        assert abs(best - oracle(cycle_plus_pendant(8))) <= 1e-8

    def test_blow_up_parity_has_no_mismatch(self):
        report = verify_theorem_nob(8)
        assert report.passed
        assert report.rows[-2:] == [(8, 4, 11117, 182, 0), (8, 6, 11117, 182, 0)]


class TestMinRhoReport:
    def test_tie_window_widens_with_tol(self):
        # The window that makes the 94 ties is the one the check names.
        report = min_rho_report(6, tol=0.3)
        assert len(report.rows) == 94
        assert report.checks == [ReportCheck("unique minimizer", False, "ties within 3")]

    def test_calls_the_search_through_the_module(self, monkeypatch):
        ties = [cycle_graph(5), cycle_plus_pendant(5)]
        monkeypatch.setattr(experiments, "min_rho_search", lambda *args: (2.0, ties))
        report = min_rho_report(5, "adjacency", 1e-10, 10)
        assert [row[2] for row in report.rows] == [2.0, 2.0]
        assert not report.passed


class TestLimitPointReport:
    def test_rows_are_the_table_and_both_checks_pass(self):
        report = limit_point_report(64)
        assert report.rows == list(limit_point_table(64))
        assert report.params == {"n_max": 64, "threshold": "2.05817102727"}
        assert report.passed and len(report.checks) == 2


class TestVerifyNob:
    def test_small_sweep_clean(self):
        report = verify_theorem_nob(5)
        assert report.passed
        assert report.params["k"] == [4, 6]
        assert len(report.rows) == 6  # n in 3..5 times k in {4, 6}
        assert report.rows[0] == (3, 4, 2, 1, 0)
        assert report.rows[2] == (4, 4, 6, 3, 0)
        assert all(row[4] == 0 for row in report.rows)

    def test_single_k(self):
        report = verify_theorem_nob(4, ks=(4,))
        assert [row[1] for row in report.rows] == [4, 4]

    def test_repeated_k_counted_once(self):
        single = verify_theorem_nob(4, ks=(4,))
        repeated = verify_theorem_nob(4, ks=(4, 4))
        assert repeated.rows == single.rows and repeated.params == single.params
        # First occurrences keep their order.
        report = verify_theorem_nob(4, ks=(6, 4, 6, 4))
        assert report.params["k"] == [6, 4]
        assert [row[1] for row in report.rows] == [6, 4, 6, 4]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_theorem_nob(2)
        with pytest.raises(ValueError):
            verify_theorem_nob(9)
        with pytest.raises(ValueError):
            verify_theorem_nob(4, ks=(5,))
        with pytest.raises(ValueError):
            verify_theorem_nob(4, ks=(2,))
        with pytest.raises(ValueError):
            verify_theorem_nob(4, ks=())


class TestConvergenceReport:
    def test_gaps_shrink_under_bound(self):
        report = convergence_report(6)
        assert report.passed
        assert len(report.rows) == 6
        n, rho, gap, bound = report.rows[0]
        assert n == 1
        assert abs(rho - PAW_RHO_A) <= 1e-9
        assert abs(gap - (rho - tau_threshold())) <= 1e-12
        for _, _, gap, bound in report.rows:
            assert 0 < gap < bound

    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    def test_rows_agree_with_cold_solves(self, tol):
        # Each tree starts from its cycle's Perron vector, and each cycle
        # from its predecessor's.
        thr = tau_threshold()
        for n, rho, gap, bound in convergence_report(50, tol=tol).rows:
            cycle = rho_adjacency_matrix(cycle_plus_pendant(2 * n + 2), tol=tol).rho
            tree = rho_adjacency_matrix(experiments._deleted_edge_tree(n), tol=tol).rho
            assert abs(rho - cycle) <= tol * cycle and gap == rho - thr
            assert abs(bound - (tree + 2.0 / (2 * n + 1) - thr)) <= tol * tree

    def test_trees_start_from_their_cycle(self, monkeypatch):
        cycles, starts = [], []
        solve_cycle = experiments._pendant_cycle_solves
        solve_tree = experiments.power_iteration_rho

        def recorded_cycles(*args):
            for n, res in solve_cycle(*args):
                cycles.append(res.eigenvector)
                yield n, res

        def recorded_tree(t, tol, max_iter, *, start):
            starts.append(start)
            return solve_tree(t, tol, max_iter, start=start)

        monkeypatch.setattr(experiments, "_pendant_cycle_solves", recorded_cycles)
        monkeypatch.setattr(experiments, "power_iteration_rho", recorded_tree)
        assert convergence_report(5).passed
        assert len(starts) == 5 and all(s is x for s, x in zip(starts, cycles))

    def test_deleted_edge_trees_match_the_cut_cycle(self):
        # The spiders are built from their legs, not by cutting the cycle.
        for n in range(1, 61):
            tree = experiments._deleted_edge_tree(n)
            assert tree == deleted_edge_tree(n)
            assert isinstance(tree, SimpleGraph) and tree.m == 2 * n + 1
            assert sorted(degrees(tree), reverse=True) == [3] + [2] * (2 * n - 2) + [1, 1, 1]

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            convergence_report(0)
        with pytest.raises(ValueError):
            convergence_report(201)


def small_report() -> ExperimentReport:
    return ExperimentReport(
        name="demo",
        params={"n": 3},
        columns=("n", "value"),
        rows=[(1, 2.170086486626033), (2, 0.5)],
        checks=[
            ReportCheck("first", True, "exact"),
            ReportCheck("second", False, "1e-8"),
        ],
    )


class TestReportRendering:
    def test_passed_requires_all_checks(self):
        report = small_report()
        assert not report.passed
        report.checks[1] = ReportCheck("second", True, "1e-8")
        assert report.passed

    def test_text_layout(self):
        text = small_report().to_text()
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert lines[1].strip() == "n=3"
        assert lines[2].split() == ["n", "value"]
        assert "2.17008648663" in lines[3]  # 12 significant digits
        assert "[PASS] first (tolerance: exact)" in text
        assert "[FAIL] second (tolerance: 1e-8)" in text

    def test_csv_round_trip(self):
        rows = list(csv.reader(io.StringIO(small_report().to_csv())))
        assert rows[0] == ["n", "value"]
        assert rows[1] == ["1", "2.17008648663"]
        assert rows[3] == []
        assert rows[4] == ["check", "verdict", "tolerance"]
        assert rows[5] == ["first", "PASS", "exact"]
        assert rows[6] == ["second", "FAIL", "1e-8"]
