"""Enumeration-driven experiments with tabular, checkable reports.

Each report builder returns an ExperimentReport: named columns of rows and
the pass/fail checks it decides, renderable as aligned text or CSV (12
significant digits, verdicts PASS/FAIL).

Two of the reports track the classical limit point
sqrt(2 + sqrt(5)) = tau^{3/2}, tau the golden ratio: beta_n is the positive
root of P_n(x) = x^{n+1} - (1 + x + ... + x^{n-1}) in (1, 2] and
alpha_n = beta_n^{1/2} + beta_n^{-1/2} climbs strictly to the threshold.
The pendant odd cycles fall to it from above; they are solved in order,
each from the Perron vector of the one before.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .constructions import cycle_graph, cycle_plus_pendant, generalized_power
from .core import SimpleGraph, check_solver_controls
from .enumeration import (
    _MAX_N,
    _augmented_class_codes,
    _check_range,
    _code_edges,
    canonical_code,
    enumerate_connected_graphs,
    graph_code,
    graph_from_code,
)
from .oddbip import is_bipartite, odd_bipartition
from .tensors import _TENSORS, AdjacencyTensor, _converged_rho, power_iteration_rho

__all__ = [
    "ReportCheck",
    "ExperimentReport",
    "min_rho_search",
    "min_rho_report",
    "beta_n",
    "alpha_n",
    "tau_threshold",
    "limit_point_table",
    "limit_point_report",
    "verify_theorem_nob",
    "pendant_cycle_rho_sequence",
    "convergence_report",
]

_TIE_WINDOW = 10.0  # radii within _TIE_WINDOW * tol of the smallest tie for the minimum
# Past this index consecutive beta_n are closer than double precision can
# resolve, so "strictly increasing" stops being checkable.
_MAX_LIMIT_INDEX = 64
_ROOT_WIDTH = 1e-15  # beta_n bisects down to this width


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


def _degree_bound(operator: str, n: int, code: int) -> float:
    """A lower bound on the radius of the graph with this code, from its
    degrees d: rho(T) is at least ||r|| / sqrt(n), r = T 1 the row sums (d
    for A, 2d for D + A), since rho(T)^2 = rho(T^2) is at least the Rayleigh
    quotient of T^2 at the all-ones vector (Hofmeister 1988); and rho(A) is
    at least sqrt(max degree) (the largest star), rho(D + A) at least
    max degree + 1. By Cauchy-Schwarz ||r|| / sqrt(n) is at least the
    average row sum, 2m/n for A and 4m/n for D + A."""
    deg = [0] * n
    for u, v in _code_edges(n, code):
        deg[u] += 1
        deg[v] += 1
    norm = math.sqrt(sum(d * d for d in deg) / n)
    if operator == "adjacency":
        return max(norm, math.sqrt(max(deg)))
    return max(2.0 * norm, max(deg) + 1.0)


def min_rho_search(
    n: int, operator: str = "adjacency", tol: float = 1e-10, max_iter: int = 1_000_000
) -> tuple[float, list[SimpleGraph]]:
    """Minimum spectral radius over connected non-bipartite graphs on n
    vertices, with every minimizer (ties within 10*tol) as a canonical
    representative, in code order. Supported for 4 <= n <= 8.

    The answer is that of solving every class. A class with lower bound L
    on its radius is excluded when L - tol*(L + 2) > best + 10*tol, best
    the smallest radius solved so far: a solved radius is the midpoint of a
    shifted Collatz-Wielandt bracket [lower, upper] with upper >= rho + 1
    and lower >= (1 - tol)*upper, so it is at least rho - tol*(rho + 1)/2,
    and for a class with rho >= L at least L - tol*(L + 1)/2. An excluded
    class would therefore have computed a radius above best + 10*tol: it
    could neither tie nor win, since the final best is no higher. The
    margin left over, tol*(L + 3)/2, exceeds the rounding of the bracket
    and of L.

    The search first solves C_n (odd n) or C_{n-1} plus a pendant edge
    (even n), whose radius U seeds best. A class with m edges has
    rho >= 2m/n for A and 4m/n for D + A, its average row sum. The budget
    is the largest m whose bound is not excluded against U. A class with
    more edges is excluded against U by that bound, and so against every
    later best, which never rises above U: it could neither tie nor win,
    and it is never enumerated. The classes within the budget take their
    bound from _degree_bound, on the code alone, and are visited in
    increasing order of it (ties in code order) until the first excluded
    one; a class is built and tested for bipartiteness only when reached.
    """
    _check_range(n, 4)
    if operator not in _TENSORS:
        raise ValueError(f"unknown operator {operator!r}")
    check_solver_controls(tol, max_iter)
    tensor = _TENSORS[operator]
    row_total = 2.0 if operator == "adjacency" else 4.0  # row sums add up to row_total * m

    def excluded(low: float) -> bool:
        return low - tol * (low + 2.0) > best + _TIE_WINDOW * tol

    first = canonical_code(n, graph_code(cycle_graph(n) if n % 2 else cycle_plus_pendant(n)))
    g = graph_from_code(n, first)
    best = _converged_rho(power_iteration_rho(tensor(g), tol, max_iter))
    solved: list[tuple[int, float, SimpleGraph]] = [(first, best, g)]
    # The incumbent has n edges and is never excluded by its own radius.
    budget = max(m for m in range(n, n * (n - 1) // 2 + 1) if not excluded(row_total * m / n))
    codes = _augmented_class_codes(n, budget)
    bounds = {code: _degree_bound(operator, n, code) for code in codes}
    for code in sorted(codes, key=lambda code: (bounds[code], code)):
        if excluded(bounds[code]):
            break
        if code == first:
            continue
        g = graph_from_code(n, code)
        if is_bipartite(g) is not None:
            continue
        rho = _converged_rho(power_iteration_rho(tensor(g), tol, max_iter))
        solved.append((code, rho, g))
        best = min(best, rho)
    argmin = [g for _, rho, g in sorted(solved) if rho - best <= _TIE_WINDOW * tol]
    return best, argmin


def min_rho_report(
    n: int, operator: str = "adjacency", tol: float = 1e-10, max_iter: int = 1_000_000
) -> ExperimentReport:
    """min_rho_search as a report: one row per minimizer, and the check
    that the minimizer is unique."""
    rho, graphs = min_rho_search(n, operator, tol, max_iter)
    return ExperimentReport(
        name="minimum spectral radius over connected non-bipartite graphs",
        params={"n": n, "operator": operator},
        columns=("n", "operator", "rho_min", "argmin_edges"),
        rows=[(n, operator, rho, " ".join(f"{u}-{v}" for u, v in g.edges)) for g in graphs],
        checks=[
            ReportCheck("unique minimizer", len(graphs) == 1, f"ties within {_TIE_WINDOW * tol:g}")
        ],
    )


def beta_n(n: int) -> float:
    """Positive root of P_n(x) = x^{n+1} - (1 + x + ... + x^{n-1}) in (1, 2].

    For n = 1 the root is exactly 1. For larger n, bisection runs on the
    rescaled form (x - 1) P_n(x) / x^n = (x^2 - x - 1) + x^{-n}, whose slope
    stays O(1) near the root, down to width _ROOT_WIDTH or until the midpoint
    stops moving.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"index must be an integer, got {n!r}") from None
    if n < 1:
        raise ValueError("index must be at least 1")
    if n == 1:
        return 1.0

    def f(x: float) -> float:
        return (x * x - x - 1.0) + x ** (-n)

    lo, hi = 1.0, 2.0  # P_n(1) = 1 - n < 0 and P_n(2) = 2^n + 1 > 0
    while hi - lo > _ROOT_WIDTH:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        val = f(mid)
        if val == 0.0:
            return mid
        if val < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def alpha_n(n: int) -> float:
    """alpha_n = beta_n^{1/2} + beta_n^{-1/2}; alpha_1 = 2 exactly."""
    return _alpha(beta_n(n))


def _alpha(beta: float) -> float:
    root = math.sqrt(beta)
    return root + 1.0 / root


def tau_threshold() -> float:
    """sqrt(2 + sqrt(5)), the strict upper limit of the alpha_n."""
    return math.sqrt(2.0 + math.sqrt(5.0))


def limit_point_table(n_max: int) -> tuple[tuple[int, float, float], ...]:
    """Rows (n, beta_n, alpha_n) for n = 1..n_max (capped at 64, past which
    consecutive values collide in double precision)."""
    if not 1 <= n_max <= _MAX_LIMIT_INDEX:
        raise ValueError(f"n_max must be in 1..{_MAX_LIMIT_INDEX}")
    betas = [beta_n(n) for n in range(1, n_max + 1)]
    return tuple((n, beta, _alpha(beta)) for n, beta in enumerate(betas, start=1))


def limit_point_report(n_max: int) -> ExperimentReport:
    """The rows of limit_point_table(n_max), checked to climb strictly and
    to stay below sqrt(2 + sqrt(5))."""
    rows = limit_point_table(n_max)
    alphas = [row[2] for row in rows]
    thr = tau_threshold()
    increasing = all(a < b for a, b in zip(alphas, alphas[1:]))
    bisected = f"roots bisected to width {_ROOT_WIDTH:g}"
    return ExperimentReport(
        name="limit point sequence alpha_n",
        params={"n_max": n_max, "threshold": _fmt(thr)},
        columns=("n", "beta_n", "alpha_n"),
        rows=list(rows),
        checks=[
            ReportCheck("alpha_n strictly increasing", increasing, bisected),
            ReportCheck("every alpha_n below sqrt(2 + sqrt(5))", max(alphas) < thr, "strict"),
        ],
    )


def verify_theorem_nob(n_max: int, ks=None) -> ExperimentReport:
    """Check, class by class, that the k/2 blow-up of a connected graph is
    odd-bipartite exactly when the base graph is bipartite.

    Runs over every connected isomorphism class on 3..n_max vertices and
    every even k in ks (4 and 6 when None), a repeated k counted once. The
    single check demands zero mismatches.
    """
    if not 3 <= n_max <= _MAX_N:
        raise ValueError(f"n_max out of supported range: need 3 <= n_max <= {_MAX_N}")
    ks = tuple(dict.fromkeys((4, 6) if ks is None else ks))
    if not ks or any(k % 2 or k < 4 for k in ks):
        raise ValueError("each k must be even and at least 4")
    report = ExperimentReport(
        name="blow-up odd-bipartiteness versus base bipartiteness",
        params={"n_max": n_max, "k": list(ks)},
        columns=("n", "k", "classes", "bipartite_bases", "mismatches"),
    )
    total_mismatches = 0
    for n in range(3, n_max + 1):
        classes = enumerate_connected_graphs(n)
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


def _prolonged(x: np.ndarray) -> np.ndarray:
    """A vector on the labels of cycle_plus_pendant(2n + 2) carried over to
    cycle_plus_pendant(2n + 4): the two new cycle vertices go in at the edge
    (n+1, n+2) opposite the branch vertex 1, and take the entries of its
    ends, x[:n+2] + [x[n+1], x[n+2]] + x[n+2:]."""
    half = len(x) // 2  # n + 1
    return np.concatenate((x[: half + 1], x[half : half + 2], x[half + 1 :]))


def _pendant_cycle_solves(n_max: int, tol: float, max_iter: int):
    """Yield (n, SpectralResult of A(cycle_plus_pendant(2n + 2))) for
    n = 1..n_max, by continuation: n = 1 starts from the all-ones vector,
    and each later cycle from its predecessor's eigenvector, prolonged."""
    start = None
    for n in range(1, n_max + 1):
        t = AdjacencyTensor(cycle_plus_pendant(2 * n + 2))
        result = power_iteration_rho(t, tol, max_iter, start=start)
        yield n, result
        start = _prolonged(result.eigenvector)


def pendant_cycle_rho_sequence(
    n_max: int, tol: float = 1e-10, max_iter: int = 1_000_000
) -> list[tuple[int, float]]:
    """(n, rho(A(C_{2n+1} + pendant edge))) for n = 1..n_max.

    The base graph is cycle_plus_pendant(2n + 2): an odd cycle of length
    2n+1 with one pendant vertex. The sequence decreases strictly toward
    sqrt(2 + sqrt(5)) from above. The cycles are solved in order, each
    starting from the Perron vector of the one before with two entries
    repeated at the edge opposite the pendant, which takes about half the
    steps of starting each from the all-ones vector; each radius is still
    that of its own converged Collatz-Wielandt bracket.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return [(n, _converged_rho(result)) for n, result in _pendant_cycle_solves(n_max, tol, max_iter)]


def _deleted_edge_tree(n: int) -> SimpleGraph:
    """cycle_plus_pendant(2n + 2) less its cycle edge (n+1, n+2), the one
    opposite the branch vertex 1: a spider with legs n, n, 1."""
    g = cycle_plus_pendant(2 * n + 2)
    return SimpleGraph(g.n, tuple(e for e in g.edges if e != (n + 1, n + 2)))


def convergence_report(
    n_max: int, tol: float = 1e-10, max_iter: int = 1_000_000
) -> ExperimentReport:
    """Track rho(A(C_{2n+1} + pendant)) against its limit sqrt(2 + sqrt(5)).

    Columns: n, rho, gap above the limit, and the bound on the gap from the
    subdivision argument, rho(deleted-edge tree) + 2/(2n+1) - limit. Checks:
    gaps strictly decreasing, all positive, and below the bound.

    Both families are solved by continuation: the cycles as in
    pendant_cycle_rho_sequence, and each deleted-edge tree, which keeps its
    cycle's vertex labels, from that cycle's Perron vector.
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
    for n, cycle in _pendant_cycle_solves(n_max, tol, max_iter):
        rho = _converged_rho(cycle)
        tree = AdjacencyTensor(_deleted_edge_tree(n))
        rho_tree = _converged_rho(power_iteration_rho(tree, tol, max_iter, start=cycle.eigenvector))
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
