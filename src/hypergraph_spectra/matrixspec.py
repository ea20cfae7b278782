"""The limit-point sequences, plus two named matrix radii for base graphs.

rho(A(G)) and rho(Q(G)) for a connected graph G are the radii of its
order-2 tensors, G taken as a 2-uniform hypergraph: the two wrappers are
check_graph plus power_iteration_rho, which the package's own radii call
directly (for k = 2 its Newton-Noda step is Noda's shifted inverse iteration).

The rest of the module tracks the classical limit point
sqrt(2 + sqrt(5)) = tau^{3/2}, tau the golden ratio: beta_n is the positive
root of P_n(x) = x^{n+1} - (1 + x + ... + x^{n-1}) in (1, 2] and
alpha_n = beta_n^{1/2} + beta_n^{-1/2} climbs strictly to the threshold.
The pendant odd cycles fall to it from above; they are solved in order,
each from the Perron vector of the one before.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .constructions import cycle_plus_pendant
from .core import Hypergraph, check_graph
from .tensors import AdjacencyTensor, SignlessLaplacianTensor, SpectralResult, _converged_rho, power_iteration_rho

__all__ = [
    "rho_adjacency_matrix",
    "rho_signless_laplacian_matrix",
    "beta_n",
    "alpha_n",
    "tau_threshold",
    "limit_point_table",
    "pendant_cycle_rho_sequence",
]

# Past this index consecutive beta_n are closer than double precision can
# resolve, so "strictly increasing" stops being checkable.
_MAX_LIMIT_INDEX = 64
_ROOT_WIDTH = 1e-15  # beta_n bisects down to this width


def rho_adjacency_matrix(
    g: Hypergraph, tol: float = 1e-10, max_iter: int = 1_000_000
) -> SpectralResult:
    """rho(A(g)) as the SpectralResult of the k = 2 adjacency tensor of g;
    g must be a connected graph."""
    check_graph(g)
    return power_iteration_rho(AdjacencyTensor(g), tol, max_iter)


def rho_signless_laplacian_matrix(
    g: Hypergraph, tol: float = 1e-10, max_iter: int = 1_000_000
) -> SpectralResult:
    """rho(D + A of g) as the SpectralResult of the k = 2 signless
    Laplacian tensor of g; g must be a connected graph."""
    check_graph(g)
    return power_iteration_rho(SignlessLaplacianTensor(g), tol, max_iter)


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
