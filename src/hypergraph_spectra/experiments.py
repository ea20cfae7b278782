"""Enumeration-driven experiments with tabular, checkable reports.

Each experiment returns an ExperimentReport: named columns of rows plus a
list of pass/fail checks, renderable as aligned text or CSV (12
significant digits, verdicts PASS/FAIL).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

from .constructions import cycle_plus_pendant, generalized_power
from .core import SimpleGraph, check_solver_controls
from .enumeration import enumerate_connected_graphs, enumerate_connected_nonbipartite
from .matrixspec import (
    _converged_rho,
    pendant_cycle_rho_sequence,
    rho_adjacency_matrix,
    rho_signless_laplacian_matrix,
    tau_threshold,
)
from .oddbip import is_bipartite, odd_bipartition

__all__ = [
    "ReportCheck",
    "ExperimentReport",
    "min_rho_search",
    "verify_theorem_nob",
    "convergence_report",
]

MATRIX_RHO = {
    "adjacency": rho_adjacency_matrix,
    "signless-laplacian": rho_signless_laplacian_matrix,
}


@dataclass(frozen=True)
class ReportCheck:
    name: str
    passed: bool
    tolerance: str


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


@dataclass
class ExperimentReport:
    """Tabular experiment outcome plus pass/fail checks."""

    name: str
    params: dict
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    checks: list[ReportCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [self.name]
        if self.params:
            lines.append("  " + " ".join(f"{k}={v}" for k, v in self.params.items()))
        cells = [tuple(_fmt(v) for v in row) for row in self.rows]
        widths = [
            max([len(col)] + [len(row[i]) for row in cells])
            for i, col in enumerate(self.columns)
        ]
        lines.append("  ".join(col.ljust(w) for col, w in zip(self.columns, widths)))
        for row in cells:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        for c in self.checks:
            verdict = "PASS" if c.passed else "FAIL"
            lines.append(f"[{verdict}] {c.name} (tolerance: {c.tolerance})")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_fmt(v) for v in row])
        if self.checks:
            writer.writerow([])
            writer.writerow(["check", "verdict", "tolerance"])
            for c in self.checks:
                writer.writerow([c.name, "PASS" if c.passed else "FAIL", c.tolerance])
        return buf.getvalue()


def _degree_bound(operator: str, g: SimpleGraph) -> float:
    """A lower bound on the radius from the degrees of g: rho(A) is at
    least the average degree 2m/n (the Rayleigh quotient at the all-ones
    vector) and sqrt(max degree) (the largest star); rho(D + A) is at least
    4m/n and max degree + 1."""
    deg = [0] * g.n
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    if operator == "adjacency":
        return max(2 * g.m / g.n, math.sqrt(max(deg)))
    return max(4 * g.m / g.n, max(deg) + 1.0)


def min_rho_search(
    n: int,
    operator: str = "adjacency",
    tol: float = 1e-10,
    big: bool = False,
    max_iter: int = 1_000_000,
) -> tuple[float, list[SimpleGraph]]:
    """Minimum spectral radius over connected non-bipartite graphs on n
    vertices, with every minimizer (ties within 10*tol) as a canonical
    representative, in code order. Supported for 4 <= n <= 7, n = 8 behind
    big=True.

    Classes are solved in increasing order of their degree bound L (ties in
    code order), and the search stops at the first class with
    L - tol*(L + 2) > best + 10*tol, best the smallest radius solved so far.
    The answer is that of solving every class: a solved radius is the
    midpoint of a shifted Collatz-Wielandt bracket [lower, upper] with
    upper >= rho + 1 and lower >= (1 - tol)*upper, so it is at least
    rho - tol*(rho + 1)/2, and for a class with rho >= L at least
    L - tol*(L + 1)/2. Every class left unsolved would therefore have
    computed a radius above best + 10*tol: it could neither tie nor win,
    whatever the final best. The margin left over, tol*(L + 3)/2, exceeds
    the rounding of the bracket.
    """
    if not 4 <= n <= 8:
        raise ValueError("n out of supported range: need 4 <= n <= 8")
    if operator not in MATRIX_RHO:
        raise ValueError(f"unknown operator {operator!r}")
    check_solver_controls(tol, max_iter)
    rho_fn = MATRIX_RHO[operator]
    graphs = list(enumerate_connected_nonbipartite(n, big=big))
    bounds = [_degree_bound(operator, g) for g in graphs]
    solved: list[tuple[int, float]] = []
    best = math.inf
    for i in sorted(range(len(graphs)), key=lambda i: (bounds[i], i)):
        low = bounds[i]
        if low - tol * (low + 2.0) > best + 10.0 * tol:
            break
        rho = _converged_rho(rho_fn(graphs[i], tol=tol, max_iter=max_iter))
        solved.append((i, rho))
        best = min(best, rho)
    argmin = [graphs[i] for i, rho in sorted(solved) if rho - best <= 10.0 * tol]
    return best, argmin


def verify_theorem_nob(n_max: int, ks=(4, 6), big: bool = False) -> ExperimentReport:
    """Check, class by class, that the k/2 blow-up of a connected graph is
    odd-bipartite exactly when the base graph is bipartite.

    Runs over every connected isomorphism class on 3..n_max vertices and
    every even k in ks. The single check demands zero mismatches.
    """
    if not 3 <= n_max <= 8:
        raise ValueError("n_max out of supported range: need 3 <= n_max <= 8")
    ks = tuple(ks)
    if not ks or any(k % 2 or k < 4 for k in ks):
        raise ValueError("each k must be even and at least 4")
    report = ExperimentReport(
        name="blow-up odd-bipartiteness versus base bipartiteness",
        params={"n_max": n_max, "k": list(ks)},
        columns=("n", "k", "classes", "bipartite_bases", "mismatches"),
    )
    total_mismatches = 0
    for n in range(3, n_max + 1):
        classes = enumerate_connected_graphs(n, big=big)
        bips = [is_bipartite(g) is not None for g in classes]
        for k in ks:
            mism = sum(
                (odd_bipartition(generalized_power(g, k, k // 2)[0]) is not None) != bip
                for g, bip in zip(classes, bips)
            )
            total_mismatches += mism
            report.rows.append((n, k, len(classes), sum(bips), mism))
    report.checks.append(
        ReportCheck(
            "blow-up odd-bipartite exactly when base bipartite",
            total_mismatches == 0,
            "exact",
        )
    )
    return report


def _deleted_edge_tree(n: int) -> SimpleGraph:
    """C_{2n+1} plus pendant with the cycle edge opposite the branch vertex
    removed: a spider with legs n, n, 1."""
    g = cycle_plus_pendant(2 * n + 2)
    cut = (n + 1, n + 2)
    return SimpleGraph(g.n, tuple(e for e in g.edges if e != cut))


def convergence_report(
    n_max: int, tol: float = 1e-10, max_iter: int = 1_000_000
) -> ExperimentReport:
    """Track rho(A(C_{2n+1} + pendant)) against its limit sqrt(2 + sqrt(5)).

    Columns: n, rho, gap above the limit, and the bound on the gap from the
    subdivision argument, rho(deleted-edge tree) + 2/(2n+1) - limit. Checks:
    gaps strictly decreasing, all positive, and below the bound.
    """
    if not 1 <= n_max <= 200:
        raise ValueError("n_max out of supported range: need 1 <= n_max <= 200")
    thr = tau_threshold()
    report = ExperimentReport(
        name="pendant odd cycles approaching sqrt(2 + sqrt(5))",
        params={"n_max": n_max, "limit": _fmt(thr)},
        columns=("n", "rho", "gap", "gap_bound"),
    )
    gaps = []
    bounds_ok = True
    for n, rho in pendant_cycle_rho_sequence(n_max, tol=tol, max_iter=max_iter):
        tree = _deleted_edge_tree(n)
        rho_tree = _converged_rho(rho_adjacency_matrix(tree, tol=tol, max_iter=max_iter))
        bound = rho_tree + 2.0 / (2 * n + 1) - thr
        gap = rho - thr
        gaps.append(gap)
        bounds_ok = bounds_ok and gap < bound
        report.rows.append((n, rho, gap, bound))
    report.checks.append(
        ReportCheck(
            "gap strictly decreasing in n",
            all(a > b for a, b in zip(gaps, gaps[1:])),
            f"rho bracketed to {tol:g}",
        )
    )
    report.checks.append(
        ReportCheck("every rho above sqrt(2 + sqrt(5))", all(gap > 0 for gap in gaps), "strict")
    )
    report.checks.append(
        ReportCheck("gap below deleted-edge-tree bound + 2/(2n+1)", bounds_ok, "strict")
    )
    return report
