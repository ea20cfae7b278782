"""Command line front end.

Subcommands::

    power       blow a graph file up into a k-uniform hypergraph
    spath       write a loose path hypergraph
    scycle      write a loose cycle hypergraph
    oddbip      decide odd-bipartiteness of a hypergraph file
    rho         spectral radius of a hypergraph tensor (bracketed iteration)
    bounds      row-sum bounds on the spectral radius
    subdivide   subdivide one edge of a graph file
    minrho      minimum spectral radius over connected non-bipartite graphs
    limitpoints tabulate beta_n, alpha_n against sqrt(2 + sqrt(5))
    converge    pendant odd cycles approaching sqrt(2 + sqrt(5))
    verify-nob  blow-up odd-bipartiteness versus base bipartiteness

Exit status: 0 on success, 1 when a reported check fails (or an iteration
does not converge), 2 on usage or input errors. Every failure prints one
`error:` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .constructions import generalized_power, s_cycle, s_path, subdivide
from .experiments import (
    ExperimentReport,
    convergence_report,
    limit_point_report,
    min_rho_report,
    verify_theorem_nob,
)
from .fileio import (
    ParseError,
    parse_graph,
    parse_hypergraph,
    serialize_graph,
    serialize_hypergraph,
)
from .oddbip import odd_bipartition
from .tensors import _TENSORS, _converged_rho, power_iteration_rho, rho_bounds

__all__ = ["run_cli", "main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error: run_cli prints it as one `error:` line
        raise ValueError(message)


@functools.cache  # built once per process: in-process callers run many jobs
def _build_parser() -> argparse.ArgumentParser:
    # Small parents, so each subcommand takes only the flags it reads.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", dest="outfile", metavar="FILE", help="output file (default stdout)")
    infile = argparse.ArgumentParser(add_help=False)
    infile.add_argument("--in", dest="infile", metavar="FILE", required=True, help="input file")
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--tol", type=float, default=1e-10, help="bracket tolerance")
    solver.add_argument("--max-iter", type=int, default=1_000_000, help="iteration cap")
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=("csv", "text"), default="text", help="report format")

    parser = _Parser(prog="hgspectra", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("power", parents=[out, infile], help="blow a graph up into a hypergraph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)

    for name in ("spath", "scycle"):
        p = sub.add_parser(name, parents=[out], help=f"write a loose {name[1:]}")
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--d", type=int, required=True, help="number of edges")

    sub.add_parser("oddbip", parents=[out, infile], help="decide odd-bipartiteness")

    p = sub.add_parser("rho", parents=[out, infile, solver], help="tensor spectral radius")
    p.add_argument("--operator", choices=sorted(_TENSORS), required=True)
    p = sub.add_parser("bounds", parents=[out, infile], help="row-sum radius bounds")
    p.add_argument("--operator", choices=sorted(_TENSORS), required=True)

    p = sub.add_parser("subdivide", parents=[out, infile], help="subdivide one edge")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--w", type=int, required=True)

    p = sub.add_parser("minrho", parents=[out, solver, report], help="extremal non-bipartite graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--operator", choices=sorted(_TENSORS), default="adjacency")

    p = sub.add_parser("limitpoints", parents=[out, report], help="beta_n / alpha_n table")
    p.add_argument("--n-max", type=int, required=True)

    p = sub.add_parser("converge", parents=[out, solver, report], help="pendant odd cycle sequence")
    p.add_argument("--n-max", type=int, required=True)

    p = sub.add_parser("verify-nob", parents=[out, report], help="blow-up parity check")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--k", type=int, action="append", help="edge size (repeatable; default 4 and 6)")

    return parser


def _emit(text: str, outfile: str | None) -> None:
    if outfile:
        Path(outfile).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)


def _read(infile: str) -> str:
    return Path(infile).read_text(encoding="utf-8")


def _emit_report(report: ExperimentReport, args) -> int:
    _emit(report.to_csv() if args.format == "csv" else report.to_text(), args.outfile)
    failed = [c.name for c in report.checks if not c.passed]
    if failed:
        raise RuntimeError("check failed: " + "; ".join(failed))
    return 0


def _cmd_power(args) -> int:
    g = parse_graph(_read(args.infile))
    h, _ = generalized_power(g, args.k, args.s)
    _emit(serialize_hypergraph(h), args.outfile)
    return 0


def _cmd_spath(args) -> int:
    _emit(serialize_hypergraph(s_path(args.k, args.s, args.d)), args.outfile)
    return 0


def _cmd_scycle(args) -> int:
    _emit(serialize_hypergraph(s_cycle(args.k, args.s, args.d)), args.outfile)
    return 0


def _cmd_oddbip(args) -> int:
    h = parse_hypergraph(_read(args.infile))
    b = odd_bipartition(h)
    if b is None:
        _emit("non-odd-bipartite\n", args.outfile)
    else:
        ones = " ".join(str(v) for v in sorted(b.part_one))
        _emit(f"odd-bipartite\npart-one: {ones}\n", args.outfile)
    return 0


def _cmd_rho(args) -> int:
    h = parse_hypergraph(_read(args.infile))
    t = _TENSORS[args.operator](h)
    result = power_iteration_rho(t, tol=args.tol, max_iter=args.max_iter)
    lines = [
        f"rho = {result.rho:.12g}",
        f"bracket = [{result.lower:.12g}, {result.upper:.12g}]",
        f"iterations = {result.iterations}",
        f"converged = {'yes' if result.converged else 'no'}",
    ]
    _emit("\n".join(lines) + "\n", args.outfile)
    _converged_rho(result)  # raises, after the lines above, if the solve ran out
    return 0


def _cmd_bounds(args) -> int:
    h = parse_hypergraph(_read(args.infile))
    lo, hi = rho_bounds(_TENSORS[args.operator](h))
    _emit(f"min_row_sum = {lo:.12g}\nmax_row_sum = {hi:.12g}\n", args.outfile)
    return 0


def _cmd_subdivide(args) -> int:
    g = parse_graph(_read(args.infile))
    _emit(serialize_graph(subdivide(g, args.u, args.w)), args.outfile)
    return 0


def _cmd_minrho(args) -> int:
    return _emit_report(min_rho_report(args.n, args.operator, args.tol, args.max_iter), args)


def _cmd_limitpoints(args) -> int:
    return _emit_report(limit_point_report(args.n_max), args)


def _cmd_converge(args) -> int:
    return _emit_report(convergence_report(args.n_max, tol=args.tol, max_iter=args.max_iter), args)


def _cmd_verify_nob(args) -> int:
    return _emit_report(verify_theorem_nob(args.n_max, ks=args.k), args)


_COMMANDS = {
    "power": _cmd_power,
    "spath": _cmd_spath,
    "scycle": _cmd_scycle,
    "oddbip": _cmd_oddbip,
    "rho": _cmd_rho,
    "bounds": _cmd_bounds,
    "subdivide": _cmd_subdivide,
    "minrho": _cmd_minrho,
    "limitpoints": _cmd_limitpoints,
    "converge": _cmd_converge,
    "verify-nob": _cmd_verify_nob,
}


def run_cli(argv: list[str] | None = None) -> int:
    """Parse argv and run one subcommand; returns the exit status."""
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help prints to stdout and exits 0
        return int(exc.code or 0)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; the input is too large", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # non-convergence, a failed check or a failed certificate
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run_cli())
