import argparse
import csv
import time

import pytest

from hypergraph_spectra import (
    Hypergraph,
    SimpleGraph,
    cycle_graph,
    cycle_plus_pendant,
    generalized_power,
    parse_hypergraph,
    run_cli,
    s_cycle,
    s_path,
    serialize_graph,
    serialize_hypergraph,
)
from hypergraph_spectra import tensors
from hypergraph_spectra.cli import _build_parser


def write_graph(tmp_path, g: SimpleGraph, name="g.txt") -> str:
    path = tmp_path / name
    path.write_text(serialize_graph(g))
    return str(path)


def write_hypergraph(tmp_path, h: Hypergraph, name="h.txt") -> str:
    path = tmp_path / name
    path.write_text(serialize_hypergraph(h))
    return str(path)


class TestConstructionCommands:
    def test_spath_writes_canonical_file(self, tmp_path):
        out = str(tmp_path / "p.txt")
        assert run_cli(["spath", "--k", "4", "--s", "2", "--d", "3", "--out", out]) == 0
        assert parse_hypergraph((tmp_path / "p.txt").read_text()) == s_path(4, 2, 3)

    def test_scycle_matches_library(self, tmp_path):
        out = str(tmp_path / "c.txt")
        assert run_cli(["scycle", "--k", "4", "--s", "3", "--d", "8", "--out", out]) == 0
        assert parse_hypergraph((tmp_path / "c.txt").read_text()) == s_cycle(4, 3, 8)

    def test_power_blows_up_graph_file(self, tmp_path):
        infile = write_graph(tmp_path, cycle_graph(3))
        out = str(tmp_path / "lift.txt")
        code = run_cli(["power", "--k", "4", "--s", "2", "--in", infile, "--out", out])
        assert code == 0
        assert parse_hypergraph((tmp_path / "lift.txt").read_text()) == s_cycle(4, 2, 3)

    def test_power_requires_input(self, capsys):
        assert run_cli(["power", "--k", "4", "--s", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_subdivide_golden_output(self, tmp_path, capsys):
        infile = write_graph(tmp_path, SimpleGraph(3, ((0, 1), (1, 2))))
        assert run_cli(["subdivide", "--u", "0", "--w", "1", "--in", infile]) == 0
        assert capsys.readouterr().out == "graph 4 3\n0 3\n1 2\n1 3\n"

    def test_subdivide_missing_edge_fails(self, tmp_path, capsys):
        infile = write_graph(tmp_path, SimpleGraph(3, ((0, 1), (1, 2))))
        assert run_cli(["subdivide", "--u", "0", "--w", "2", "--in", infile]) == 2
        assert "no edge" in capsys.readouterr().err

    def test_bad_construction_parameters_fail(self, capsys):
        assert run_cli(["scycle", "--k", "4", "--s", "2", "--d", "2"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSpectralCommands:
    def test_rho_on_regular_lift_is_exact(self, tmp_path, capsys):
        infile = write_hypergraph(tmp_path, s_cycle(4, 2, 3))
        assert run_cli(["rho", "--operator", "adjacency", "--in", infile]) == 0
        out = capsys.readouterr().out
        assert out == "rho = 2\nbracket = [2, 2]\niterations = 1\nconverged = yes\n"

    def test_rho_matches_across_interfaces(self, tmp_path, capsys):
        h, _ = generalized_power(cycle_graph(5), 6, 3)
        infile = write_hypergraph(tmp_path, h)
        assert run_cli(["rho", "--operator", "signless-laplacian", "--in", infile]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert abs(float(line.split("=")[1]) - 4.0) <= 1e-9

    def test_rho_reports_nonconvergence(self, tmp_path, capsys):
        infile = write_hypergraph(tmp_path, s_path(4, 2, 3))
        code = run_cli(
            ["rho", "--operator", "adjacency", "--in", infile, "--max-iter", "2"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "converged = no" in captured.out
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
        assert "converge" in captured.err

    def test_rho_stops_on_underflow_with_its_reason(self, tmp_path, capsys):
        # The Perron vector of Q on this pendant cycle underflows after about
        # 10,400 steps; without the stop the run would go on to max_iter.
        infile = write_hypergraph(tmp_path, cycle_plus_pendant(3000))
        assert run_cli(["rho", "--operator", "signless-laplacian", "--in", infile]) == 1
        captured = capsys.readouterr()
        assert "converged = no" in captured.out
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: power iteration did not converge: ")
        assert "underflow" in captured.err

    def test_rho_rejects_disconnected(self, tmp_path, capsys):
        h = Hypergraph(4, 8, ((0, 1, 2, 3), (4, 5, 6, 7)))
        infile = write_hypergraph(tmp_path, h)
        assert run_cli(["rho", "--operator", "adjacency", "--in", infile]) == 2
        assert "irreducible" in capsys.readouterr().err

    def test_bounds_golden_output(self, tmp_path, capsys):
        infile = write_hypergraph(tmp_path, s_path(4, 2, 2))
        assert run_cli(["bounds", "--operator", "adjacency", "--in", infile]) == 0
        assert capsys.readouterr().out == "min_row_sum = 1\nmax_row_sum = 2\n"


class TestOddbipCommand:
    def test_positive_case_prints_certificate(self, tmp_path, capsys):
        infile = write_hypergraph(tmp_path, s_cycle(4, 3, 8))
        assert run_cli(["oddbip", "--in", infile]) == 0
        out = capsys.readouterr().out
        assert out.startswith("odd-bipartite\npart-one:")
        part = {int(tok) for tok in out.splitlines()[1].split()[1:]}
        assert part and part < set(range(8))

    def test_negative_case(self, tmp_path, capsys):
        infile = write_hypergraph(tmp_path, s_cycle(4, 3, 6))
        assert run_cli(["oddbip", "--in", infile]) == 0
        assert capsys.readouterr().out == "non-odd-bipartite\n"

    def test_odd_rank_is_usage_error(self, tmp_path, capsys):
        infile = write_hypergraph(tmp_path, s_path(3, 1, 2))
        assert run_cli(["oddbip", "--in", infile]) == 2
        assert "even" in capsys.readouterr().err


class TestReportCommands:
    def test_minrho_five_vertices(self, capsys):
        assert run_cli(["minrho", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] unique minimizer" in out
        assert "rho_min" in out

    def test_minrho_csv_parses(self, tmp_path):
        out = str(tmp_path / "r.csv")
        code = run_cli(["minrho", "--n", "4", "--format", "csv", "--out", out])
        assert code == 0
        rows = list(csv.reader((tmp_path / "r.csv").read_text().splitlines()))
        assert rows[0] == ["n", "operator", "rho_min", "argmin_edges"]
        assert rows[1][2].startswith("2.170086486")  # tol-limited digits
        assert ["check", "verdict", "tolerance"] in rows

    def test_limitpoints_passes(self, capsys):
        assert run_cli(["limitpoints", "--n-max", "40"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] alpha_n strictly increasing" in out
        assert "[PASS] every alpha_n below sqrt(2 + sqrt(5))" in out

    def test_converge_passes(self, capsys):
        assert run_cli(["converge", "--n-max", "3"]) == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_verify_nob_single_k(self, capsys):
        assert run_cli(["verify-nob", "--n-max", "4", "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "6" in out  # six classes on four vertices

    def test_verify_nob_repeated_k_prints_each_row_once(self, capsys):
        assert run_cli(["verify-nob", "--n-max", "4", "--k", "4"]) == 0
        single = capsys.readouterr().out
        assert run_cli(["verify-nob", "--n-max", "4", "--k", "4", "--k", "4"]) == 0
        assert capsys.readouterr().out == single

    def test_report_range_errors(self, capsys):
        assert run_cli(["limitpoints", "--n-max", "0"]) == 2
        assert run_cli(["verify-nob", "--n-max", "4", "--k", "5"]) == 2
        capsys.readouterr()


class TestReportText:
    """The full stdout of each report, byte for byte, where every printed
    figure is exact (integer radii and counts, bisected roots); of
    converge, all but the solved digits."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["minrho", "--n", "5"],
                "minimum spectral radius over connected non-bipartite graphs\n"
                "  n=5 operator=adjacency\n"
                "n  operator   rho_min  argmin_edges       \n"
                "5  adjacency  2        0-3 0-4 1-2 1-4 2-3\n"
                "[PASS] unique minimizer (tolerance: ties within 1e-09)\n",
            ),
            (
                ["minrho", "--n", "5", "--operator", "signless-laplacian", "--format", "csv"],
                "n,operator,rho_min,argmin_edges\n"
                "5,signless-laplacian,4,0-3 0-4 1-2 1-4 2-3\n"
                "\n"
                "check,verdict,tolerance\n"
                "unique minimizer,PASS,ties within 1e-09\n",
            ),
            (
                ["limitpoints", "--n-max", "4"],
                "limit point sequence alpha_n\n"
                "  n_max=4 threshold=2.05817102727\n"
                "n  beta_n         alpha_n      \n"
                "1  1              2            \n"
                "2  1.32471795724  2.01980088709\n"
                "3  1.46557123188  2.03663915206\n"
                "4  1.53415774491  2.0459670571 \n"
                "[PASS] alpha_n strictly increasing (tolerance: roots bisected to width 1e-15)\n"
                "[PASS] every alpha_n below sqrt(2 + sqrt(5)) (tolerance: strict)\n",
            ),
            (
                ["limitpoints", "--n-max", "4", "--format", "csv"],
                "n,beta_n,alpha_n\n"
                "1,1,2\n"
                "2,1.32471795724,2.01980088709\n"
                "3,1.46557123188,2.03663915206\n"
                "4,1.53415774491,2.0459670571\n"
                "\n"
                "check,verdict,tolerance\n"
                "alpha_n strictly increasing,PASS,roots bisected to width 1e-15\n"
                "every alpha_n below sqrt(2 + sqrt(5)),PASS,strict\n",
            ),
            (
                ["verify-nob", "--n-max", "4", "--k", "6", "--k", "4"],
                "blow-up odd-bipartiteness versus base bipartiteness\n"
                "  n_max=4 k=[6, 4]\n"
                "n  k  classes  bipartite_bases  mismatches\n"
                "3  6  2        1                0         \n"
                "3  4  2        1                0         \n"
                "4  6  6        3                0         \n"
                "4  4  6        3                0         \n"
                "[PASS] blow-up odd-bipartite exactly when base bipartite (tolerance: exact)\n",
            ),
        ],
    )
    def test_exact_stdout(self, capsys, argv, expected):
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == expected

    def test_converge_text_apart_from_the_solved_digits(self, capsys):
        # The radii's last digits may differ between numpy versions.
        assert run_cli(["converge", "--n-max", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [
            "pendant odd cycles approaching sqrt(2 + sqrt(5))",
            "  n_max=3 limit=2.05817102727",
        ]
        assert lines[2].split() == ["n", "rho", "gap", "gap_bound"]
        assert [row.split()[0] for row in lines[3:6]] == ["1", "2", "3"]
        assert lines[6:] == [
            "[PASS] gap strictly decreasing in n (tolerance: rho bracketed to 1e-10)",
            "[PASS] every rho above sqrt(2 + sqrt(5)) (tolerance: strict)",
            "[PASS] gap below deleted-edge-tree bound + 2/(2n+1) (tolerance: strict)",
        ]


class TestHostileControls:
    """Bad controls and hostile inputs exit 2 at once with one stderr line."""

    @pytest.mark.parametrize(
        "extra",
        [
            ["--tol", "nan"],
            ["--tol", "inf"],
            ["--tol", "0"],
            ["--tol", "1"],
            ["--tol", "-0.5"],
            ["--max-iter", "0"],
        ],
    )
    def test_rho_rejects_bad_controls(self, tmp_path, capsys, extra):
        infile = write_hypergraph(tmp_path, s_path(4, 2, 3))
        assert run_cli(["rho", "--operator", "adjacency", "--in", infile, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["minrho", "--n", "4", "--tol", "nan"],
            ["limitpoints", "--n-max", "5", "--tol", "inf"],
            ["converge", "--n-max", "3", "--tol", "nan"],
        ],
    )
    def test_reports_reject_bad_tol(self, capsys, argv):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-nob", "--n-max", "3", "--tol", "nan", "--max-iter", "0"],
            ["verify-nob", "--n-max", "3", "--tol", "inf"],
            ["limitpoints", "--n-max", "3", "--max-iter", "0"],
            ["spath", "--k", "4", "--s", "2", "--d", "1", "--tol", "nan"],
            ["minrho", "--n", "5", "--big"],
            ["rho", "--operator", "adjacency", "--in", "x", "--format", "csv"],
            ["spath", "--k", "4", "--s", "2", "--d", "1", "--in", "x"],
            ["limitpoints", "--n-max", "3", "--tol", "1e-10"],
            ["bounds", "--operator", "adjacency", "--in", "x", "--max-iter", "5"],
        ],
    )
    def test_controls_rejected_where_unused(self, capsys, argv):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("argv", [["minrho", "--n", "4"], ["converge", "--n-max", "3"]])
    def test_matrix_nonconvergence_is_one_error_line(self, capsys, argv):
        assert run_cli([*argv, "--max-iter", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
        assert "converge" in captured.err

    def test_failed_check_is_one_error_line_after_the_report(self, capsys):
        # Doubles resolve the gaps only to about n = 68: two gaps print alike.
        assert run_cli(["converge", "--n-max", "69"]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] gap strictly decreasing in n" in captured.out
        assert captured.err == "error: check failed: gap strictly decreasing in n\n"

    def test_rho_tol_below_double_resolution_rejected_at_once(self, tmp_path, capsys):
        lift, _ = generalized_power(cycle_plus_pendant(12), 4, 2)
        infile = write_hypergraph(tmp_path, lift)
        start = time.perf_counter()
        argv = ["rho", "--operator", "signless-laplacian", "--in", infile, "--tol", "1e-300"]
        assert run_cli(argv) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "tol" in captured.err

    def test_minrho_tol_below_double_resolution_rejected_at_once(self, capsys):
        start = time.perf_counter()
        assert run_cli(["minrho", "--n", "4", "--tol", "1e-17"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "tol" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [["oddbip"], ["rho", "--operator", "adjacency"], ["bounds", "--operator", "signless-laplacian"]],
    )
    def test_hostile_header_rejected(self, tmp_path, capsys, argv):
        path = tmp_path / "hostile.txt"
        path.write_text("hypergraph 4 1000000000000 1\n0 1 2 3\n")
        assert run_cli([*argv, "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "limit" in captured.err

    @pytest.mark.parametrize(
        "argv, status, out",
        [
            (["rho", "--operator", "adjacency"], 2, ""),
            (["rho", "--operator", "signless-laplacian"], 2, ""),
            (["bounds", "--operator", "adjacency"], 0, "min_row_sum = 0\nmax_row_sum = 0\n"),
            (["bounds", "--operator", "signless-laplacian"], 0, "min_row_sum = 0\nmax_row_sum = 0\n"),
            (["oddbip"], 0, "odd-bipartite\npart-one: \n"),
        ],
        ids=[
            "rho-2-adjacency",
            "rho-2-signless-laplacian",
            "bounds-0-adjacency",
            "bounds-0-signless-laplacian",
            "oddbip-0",
        ],
    )
    def test_edgeless_header_with_huge_k_answers_at_once(self, tmp_path, capsys, argv, status, out):
        path = tmp_path / "edgeless.txt"
        path.write_text("hypergraph 1000000000000 5 0\n")
        start = time.perf_counter()
        assert run_cli([*argv, "--in", str(path)]) == status
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == out
        if status:
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith("error: ")
        else:
            assert captured.err == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["spath", "--k", "4", "--s", "2", "--d", "100000000"],
            ["scycle", "--k", "4", "--s", "2", "--d", "100000000"],
            ["power", "--k", "3000000", "--s", "1"],
        ],
    )
    def test_oversized_construction_refused_at_once(self, tmp_path, capsys, argv):
        if argv[0] == "power":
            argv = [*argv, "--in", write_graph(tmp_path, SimpleGraph(2, ((0, 1),)))]
        start = time.perf_counter()
        assert run_cli(argv) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "limit" in captured.err

    def test_memory_error_maps_to_usage_error(self, tmp_path, capsys, monkeypatch):
        from hypergraph_spectra import cli

        def exhausted(h):
            raise MemoryError

        monkeypatch.setattr(cli, "odd_bipartition", exhausted)
        infile = write_hypergraph(tmp_path, s_cycle(4, 2, 4))
        assert run_cli(["oddbip", "--in", infile]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "memory" in captured.err


SOLVER, REPORT = {"--tol", "--max-iter"}, {"--format"}
# The flags each subcommand takes besides --out, which all of them take.
FLAGS = {
    "power": {"--in", "--k", "--s"},
    "spath": {"--k", "--s", "--d"},
    "scycle": {"--k", "--s", "--d"},
    "oddbip": {"--in"},
    "rho": {"--in", "--operator"} | SOLVER,
    "bounds": {"--in", "--operator"},
    "subdivide": {"--in", "--u", "--w"},
    "minrho": {"--n", "--operator"} | SOLVER | REPORT,
    "limitpoints": {"--n-max"} | REPORT,
    "converge": {"--n-max"} | SOLVER | REPORT,
    "verify-nob": {"--n-max", "--k"} | REPORT,
}


def assert_one_usage_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


class TestUsage:
    def test_no_command(self, capsys):
        assert run_cli([]) == 2
        assert_one_usage_line(capsys)

    def test_unknown_command(self, capsys):
        assert run_cli(["zap"]) == 2
        assert_one_usage_line(capsys)

    def test_missing_required_option(self, capsys):
        assert run_cli(["spath", "--k", "4", "--s", "2"]) == 2
        assert capsys.readouterr().err == "error: the following arguments are required: --d\n"

    def test_unparsable_value(self, capsys):
        assert run_cli(["rho", "--operator", "adjacency", "--in", "x", "--tol", "abc"]) == 2
        assert_one_usage_line(capsys)

    def test_bad_choice(self, capsys):
        assert run_cli(["minrho", "--n", "5", "--operator", "laplacian"]) == 2
        assert_one_usage_line(capsys)

    def test_foreign_flag_is_named(self, capsys):
        assert run_cli(["verify-nob", "--n-max", "3", "--tol", "nan"]) == 2
        assert capsys.readouterr().err == "error: unrecognized arguments: --tol nan\n"

    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        taken = {
            name: {f for a in p._actions for f in a.option_strings if f not in ("-h", "--help")}
            for name, p in sub.choices.items()
        }
        assert taken == {name: flags | {"--out"} for name, flags in FLAGS.items()}
        assert sum(map(len, taken.values())) == 44

    def test_operator_choices_are_the_tensor_table(self):
        (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        for command in ("rho", "bounds", "minrho"):
            (operator,) = [a for a in sub.choices[command]._actions if "--operator" in a.option_strings]
            assert list(operator.choices) == sorted(tensors._TENSORS)
        assert sorted(tensors._TENSORS) == ["adjacency", "signless-laplacian"]

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help_exits_zero_on_stdout(self, capsys, command):
        assert run_cli([command, "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: hgspectra {command}")
        assert "--out" in captured.out
        assert captured.err == ""

    def test_missing_input_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.txt")
        assert run_cli(["oddbip", "--in", missing]) == 2
        assert "error:" in capsys.readouterr().err

    def test_input_file_is_read_as_utf8(self, tmp_path, capsys):
        plain = tmp_path / "plain.txt"
        plain.write_text("hypergraph 4 4 1\n0 1 2 3\n", encoding="ascii")
        assert run_cli(["oddbip", "--in", str(plain)]) == 0
        expected = capsys.readouterr().out
        # A comment in UTF-8, and a digit that int() reads (ARABIC-INDIC DIGIT ZERO).
        text = tmp_path / "text.txt"
        text.write_text("hypergraph 4 4 1  # caf\u00e9\n\u0660 1 2 3\n", encoding="utf-8")
        assert run_cli(["oddbip", "--in", str(text)]) == 0
        assert capsys.readouterr().out == expected

    def test_undecodable_input_file_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_bytes(b"hypergraph 4 4 1  # caf\xe9\n0 1 2 3\n")  # Latin-1, not UTF-8
        assert run_cli(["oddbip", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_unwritable_output(self, tmp_path, capsys):
        out = str(tmp_path / "no" / "dir" / "x.txt")
        assert run_cli(["spath", "--k", "4", "--s", "2", "--d", "1", "--out", out]) == 2
        assert "error:" in capsys.readouterr().err

    def test_back_to_back_calls_share_no_state(self, capsys):
        # The parser is built once per process; each call still starts from
        # the defaults, after a repeatable option or an error exit.
        assert run_cli(["verify-nob", "--n-max", "3", "--k", "4"]) == 0
        assert "k=[4]" in capsys.readouterr().out
        assert run_cli(["verify-nob", "--n-max", "3"]) == 0
        assert "k=[4, 6]" in capsys.readouterr().out
        assert run_cli(["verify-nob", "--n-max", "3", "--k", "4", "--k", "6", "--k", "5"]) == 2
        assert run_cli(["verify-nob", "--n-max", "3", "--bogus"]) == 2
        assert run_cli(["spath", "--k", "4", "--s", "2"]) == 2
        capsys.readouterr()
        assert run_cli(["verify-nob", "--n-max", "3"]) == 0
        assert "k=[4, 6]" in capsys.readouterr().out
        assert run_cli(["spath", "--k", "4", "--s", "2", "--d", "1"]) == 0
        assert capsys.readouterr().out == "hypergraph 4 4 1\n0 1 2 3\n"

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "hypergraph_spectra", "spath", "--k", "4", "--s", "2", "--d", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "hypergraph 4 4 1\n0 1 2 3\n"
