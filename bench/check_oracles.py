"""Check that the benchmark's oracles accept right answers and reject wrong ones.

    python3 bench/check_oracles.py

Runs small real hgspectra jobs from the checkout's src/, feeds their output
to the oracles unchanged, then deliberately corrupted (a radius off by 1e-6,
a flipped parity verdict, a broken certificate, a wrong class count, a wrong
minimiser, a failed report check). Prints one line per case; exits 1 if any
right answer is rejected or any corrupted one accepted.
"""

from __future__ import annotations

import math
import re
import sys
from functools import partial
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from hypergraph_spectra.cli import run_cli  # noqa: E402


def run(work: Path, name: str, *argv: str) -> str:
    out = work / f"{name}.txt"
    status = run_cli([*argv, "--out", str(out)])
    if status != 0:
        raise SystemExit(f"{name}: hgspectra exited {status}")
    return out.read_text(encoding="ascii")


def shift_numbers(text: str, key: str, delta: float) -> str:
    """Add delta to every number on the `key = ...` line."""
    def bump(match: re.Match) -> str:
        return f"{float(match.group(0)) + delta:.12g}"

    lines = [
        re.sub(r"-?\d+\.?\d*(?:e[-+]\d+)?", bump, line) if line.startswith(key + " =") else line
        for line in text.splitlines()
    ]
    return "\n".join(lines) + "\n"


def replace_cell(text: str, row_start: str, col: int, value: str) -> str:
    """Set cell `col` of the first report row whose cells start with row_start."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        cells = line.split()
        if " ".join(cells).startswith(row_start):
            cells[col] = value
            lines[i] = "  ".join(cells)
            break
    return "\n".join(lines) + "\n"


def cases(work: Path):
    # Spectral radius of a pendant-cycle lift at tol 1e-13.
    base = workloads.Base(12, tuple(workloads.pendant_cycle_edges(12)), False)
    workloads.write_lift(base, work / "pendant.hg")
    ref = workloads.matrix_rho(base, "adjacency")
    rho = run(work, "rho", "rho", "--in", str(work / "pendant.hg"), "--operator", "adjacency", "--tol", "1e-13")
    check = partial(oracles.check_rho, ref=ref, atol=1e-12, tol=1e-13)
    yield "rho as printed", check, rho, True
    shifted = shift_numbers(shift_numbers(rho, "rho", 1e-6), "bracket", 1e-6)
    yield "rho and bracket off by 1e-6", check, shifted, False
    yield "rho reported unconverged", check, rho.replace("converged = yes", "converged = no"), False

    deg = np.bincount(np.array(base.edges).ravel())
    bounds = run(work, "bounds", "bounds", "--in", str(work / "pendant.hg"), "--operator", "adjacency")
    check = partial(oracles.check_bounds, lo=float(deg.min()), hi=float(deg.max()))
    yield "bounds as printed", check, bounds, True
    yield "min row sum off by one", check, shift_numbers(bounds, "min_row_sum", 1.0), False

    # Parity of a bipartite lift (C_6 with a chord) and a non-bipartite one.
    bip = workloads.Base(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)), True)
    workloads.write_lift(bip, work / "bip.hg")
    cert = run(work, "oddbip-bip", "oddbip", "--in", str(work / "bip.hg"))
    check = partial(oracles.check_oddbip, odd_bipartite=True, n=12, edges=workloads.half_edge_lift(bip))
    yield "odd-bipartite certificate as printed", check, cert, True
    yield "verdict flipped to non-odd-bipartite", check, "non-odd-bipartite\n", False
    ones = cert.splitlines()[1].split(":")[1].split()
    broken = "odd-bipartite\npart-one: " + " ".join(ones[1:]) + "\n"
    yield "certificate missing one vertex", check, broken, False
    verdict = run(work, "oddbip-nonbip", "oddbip", "--in", str(work / "pendant.hg"))
    check = partial(oracles.check_oddbip, odd_bipartite=False, n=24, edges=workloads.half_edge_lift(base))
    yield "non-odd-bipartite verdict as printed", check, verdict, True
    yield "verdict flipped to odd-bipartite", check, "odd-bipartite\npart-one: 0 1\n", False

    report = run(work, "verify-nob", "verify-nob", "--n-max", "5")
    check = partial(oracles.check_verify_nob, n_max=5)
    yield "verify-nob report as printed", check, report, True
    yield "class count 21 changed to 22", check, replace_cell(report, "5 4", 2, "22"), False
    yield "report check failing", check, report.replace("[PASS]", "[FAIL]"), False

    report = run(work, "minrho", "minrho", "--n", "5")
    check = partial(oracles.check_minrho, n=5)
    yield "minrho report as printed", check, report, True
    yield "minimum off by 1e-6", check, replace_cell(report, "5 adjacency", 2, "2.000001"), False
    row = next(line.split() for line in report.splitlines() if line.split()[:2] == ["5", "adjacency"])
    yield "minimiser with a repeated edge", check, replace_cell(report, "5 adjacency", 3, row[4]), False

    n_max = 8
    exact = [workloads.pendant_cycle_rho_60(n) for n in range(1, n_max + 1)]
    trees = []
    for n in range(1, n_max + 1):
        edges = tuple(e for e in workloads.pendant_cycle_edges(2 * n + 2) if e != (n + 1, n + 2))
        trees.append(workloads.matrix_rho(workloads.Base(2 * n + 2, edges, False), "adjacency"))
    report = run(work, "converge", "converge", "--n-max", str(n_max), "--tol", "1e-13")
    limit = math.sqrt(2.0 + math.sqrt(5.0))
    check = partial(oracles.check_converge, exact=exact, tree=trees, limit=limit, atol=1e-12)
    yield "converge report as printed", check, report, True
    row = next(line.split() for line in report.splitlines() if line.split()[:1] == ["3"])
    yield "converge rho off by 1e-6", check, replace_cell(report, "3 ", 1, f"{float(row[1]) + 1e-6:.12g}"), False
    yield "converge gap bound off by 1e-6", check, replace_cell(report, "3 ", 3, f"{float(row[3]) + 1e-6:.12g}"), False


def main() -> int:
    work = BENCH / "_work" / "check_oracles"
    work.mkdir(parents=True, exist_ok=True)
    wrong = 0
    for label, check, text, should_pass in cases(work):
        reason = check(text)
        ok = (reason is None) == should_pass
        wrong += not ok
        verdict = "accepted" if reason is None else f"rejected ({reason})"
        print(f"[{'ok' if ok else 'WRONG'}] {label}: {verdict}")
    print(f"{wrong} oracle verdicts wrong")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
