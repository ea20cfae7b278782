"""Adjacency and signless Laplacian tensors of uniform hypergraphs.

For a k-uniform hypergraph the adjacency tensor A has order k and dimension
n, with entry 1/(k-1)! at every permutation of every edge. The signless
Laplacian Q = D + A is A plus its degree diagonal, so SignlessLaplacianTensor
is an AdjacencyTensor that adds that diagonal to each adjacency result. A
SimpleGraph is the 2-uniform Hypergraph, whose two tensors are its adjacency
and signless Laplacian matrices. Tensors here are kept implicit: all
spectral work needs only x -> T x^{k-1}, where

    (A x^{k-1})_u = sum over edges e containing u of prod_{w in e, w != u} x_w.

An eigenpair satisfies T x^{k-1} = lambda x^{[k-1]} with x^{[k-1]} the
entrywise power. For nonnegative weakly irreducible tensors the spectral
radius is the unique eigenvalue with a strictly positive eigenvector, and the
Collatz-Wielandt ratios at any positive vector bracket it from both sides.

The solver evaluates that bracket once per step and stops when it is narrow
enough. Between two evaluations it takes a step of the shifted power
iteration (Ng, Qi and Zhou, SIAM J. Matrix Anal. Appl. 2009) or a
Newton-Noda step (after Guo, Lin and Liu, Numer. Math. 137, 2017): one
dense linear solve with the Jacobian of x -> T x^{k-1}, which converges
quadratically near the radius and, up to rounding, never raises the upper
bound. Newton-Noda steps start once the power steps taken, or those still
needed by the bracket's contraction, would cost more than the about ten
Newton-Noda steps (four for k = 2) that finish; so inputs with a clear
spectral gap stay on power steps. A step whose solve fails or whose
solution is not strictly positive is a power step too. Above dimension
2048 there are no Newton-Noda steps; instead each power step is mixed with
the last five by type-II Anderson acceleration (Walker and Ni, SIAM J.
Numer. Anal. 49, 2011). A mix is used only when it is strictly positive,
and one that widens the bracket is replaced by the power step it
displaced. The reported bracket is that of the final positive vector,
however it was found.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constructions import BlowupMap
from .core import Hypergraph, check_solver_controls, is_connected

__all__ = [
    "AdjacencyTensor",
    "SignlessLaplacianTensor",
    "SpectralResult",
    "txk",
    "s_ratios",
    "rho_bounds",
    "weakly_irreducible",
    "power_iteration_rho",
    "check_subsolution",
    "lift_vector",
    "half_edge_constancy",
]

# Largest dimension that takes Newton-Noda steps, as a memory bound: a step
# raised the peak RSS by 106 MB at this size (about three dense n x n float
# arrays).
_NEWTON_MAX_DIM = 2048

# Newton-Noda steps that finish a solve from where the power iteration
# hands over. From the all-ones vector, 7 to 13 were measured on
# pendant-cycle lifts, loose paths and random hypergraphs with k = 3..40,
# and about 4.5 on the connected graphs on 7 vertices (k = 2, where the step
# is Noda's).
_NEWTON_STEPS = 10
_NODA_STEPS = 4

# Step costs in edge slots of apply: a power step costs m * k plus a fixed
# 1500, a Newton-Noda step n^2 for the Jacobian plus n^3 / 700 for the solve
# plus a fixed 3000. Fitted for n = 7..2048 on a 2-vCPU x86_64 host
# (Python 3.11, numpy 2.4, OpenBLAS), each estimate within 1.5x of the
# measured time, when a slot cost about 20 ns. The column-kernel apply takes
# 4-6 ns per slot plus 10-25 us per call (k = 3..8, m = 500..8000, same
# host), so these prices now overstate power steps on large inputs; they are
# kept as fitted, since refitting moves the switch points and so the output.
_POWER_STEP_SLOTS = 1500
_NEWTON_STEP_SLOTS = 3000
_SOLVE_SLOTS_PER_CUBE = 1 / 700

# Above _NEWTON_MAX_DIM: power steps are mixed over this many past steps,
# the Gram matrix's diagonal raised by this fraction of itself.
_ANDERSON_DEPTH = 5
_ANDERSON_RIDGE = 1e-12


class AdjacencyTensor:
    """Adjacency tensor of a k-uniform hypergraph, kept implicit: the
    solvers need only apply (x -> A x^{k-1}), jacobian and row_sums. A
    SimpleGraph is the hypergraph with k = 2, whose tensor is its adjacency
    matrix.

    apply works in three (m, k) buffers that the tensor allocates once and
    reuses on every call, so one tensor must not serve concurrent apply
    calls from several threads. The array apply returns is its own.
    """

    kind = "adjacency"
    order: int
    dim: int
    hypergraph: Hypergraph

    def __init__(self, h: Hypergraph):
        self.hypergraph = h
        self.order = h.k
        self.dim = h.n
        # A writable copy: np.take and np.bincount copy a read-only index
        # array on every call.
        self._edges = h.edge_array.copy()
        self._deg = np.bincount(self._edges.ravel(), minlength=h.n).astype(float)
        if not h.m:
            # No buffers and no views: there are 2(k-1) of them whatever m
            # is, and an edgeless header may declare any k.
            return
        # apply's buffers: x gathered per slot, and the products of the
        # slots to the left and to the right of each.
        self._gathered = np.empty(self._edges.shape)
        self._left = np.empty(self._edges.shape)
        self._right = np.empty(self._edges.shape)
        self._left[:, 0] = 1.0
        self._right[:, -1] = 1.0
        # Leave-one-out products per edge, exact even with zero entries, as
        # (factor, factor, out) slot columns: prefixes left to right, then
        # suffixes right to left, each in cumulative-product order.
        X, L, R = self._gathered.T, self._left.T, self._right.T
        self._products = tuple((L[j - 1], X[j - 1], L[j]) for j in range(1, h.k)) + tuple(
            (R[j + 1], X[j + 1], R[j]) for j in range(h.k - 2, -1, -1)
        )

    def __reduce__(self):
        # Copies and pickles rebuild the buffers: a copied column view would
        # no longer alias its copied buffer.
        return type(self), (self.hypergraph,)

    def _check_vector(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.dim,):
            raise ValueError(f"expected a vector of length {self.dim}, got shape {arr.shape}")
        return arr

    def apply(self, x) -> np.ndarray:
        """A x^{k-1} as a length-n vector."""
        x = self._check_vector(x)
        if not self.hypergraph.m:
            return np.zeros(self.dim)
        # Every index is a vertex, so "clip" changes nothing; it only spares
        # the buffered copy that the default bounds check makes of out.
        np.take(x, self._edges, out=self._gathered, mode="clip")
        for a, b, out in self._products:
            np.multiply(a, b, out=out)
        np.multiply(self._left, self._right, out=self._gathered)
        # bincount adds in the same order as np.add.at, at a fraction of the cost.
        return np.bincount(self._edges.ravel(), weights=self._gathered.ravel(), minlength=self.dim)

    def row_sums(self) -> np.ndarray:
        """r_i = sum of all entries with first index i: each incident edge
        contributes (k-1)! entries of 1/(k-1)!."""
        return self._deg.copy()

    def jacobian(self, x) -> np.ndarray:
        """Dense Jacobian of x -> A x^{k-1}: entry (u, v) sums, over the
        edges holding both u and v, the product of x over the other k-2
        vertices. Symmetric with a zero diagonal."""
        x = self._check_vector(x)
        pairs, others = _pair_positions(self.order)
        E = self._edges
        # Edges are sorted, so every (first, second) pair lies above the diagonal.
        weights = np.prod(x[E][:, others], axis=2)
        flat = E[:, pairs[:, 0]] * self.dim + E[:, pairs[:, 1]]
        above = np.bincount(flat.ravel(), weights=weights.ravel(), minlength=self.dim**2)
        above = above.astype(float, copy=False).reshape(self.dim, self.dim)
        return above + above.T


class SignlessLaplacianTensor(AdjacencyTensor):
    """Signless Laplacian Q = D + A of a k-uniform hypergraph: the adjacency
    tensor plus the degree diagonal, which each method adds to the
    adjacency result. For k = 2 it is the matrix D + A of a SimpleGraph."""

    kind = "signless-laplacian"

    def apply(self, x) -> np.ndarray:
        """Q x^{k-1}: A x^{k-1} plus deg_u x_u^{k-1}."""
        x = self._check_vector(x)
        return super().apply(x) + self._deg * x ** (self.order - 1)

    def row_sums(self) -> np.ndarray:
        return super().row_sums() + self._deg

    def jacobian(self, x) -> np.ndarray:
        """Dense Jacobian of x -> Q x^{k-1}: the adjacency Jacobian plus
        (k-1) deg_u x_u^{k-2} on the diagonal."""
        x = self._check_vector(x)
        jac = super().jacobian(x)
        k = self.order
        jac[np.diag_indices(self.dim)] += (k - 1) * self._deg * x ** (k - 2)
        return jac


@lru_cache(maxsize=None)
def _pair_positions(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions (i, j), i < j, within a k-edge, and for each pair the k-2
    positions left over."""
    pairs = list(itertools.combinations(range(k), 2))
    others = [[w for w in range(k) if w not in p] for p in pairs]
    return (
        np.array(pairs, dtype=np.intp),
        np.array(others, dtype=np.intp).reshape(len(pairs), k - 2),
    )


@dataclass(frozen=True)
class SpectralResult:
    """Outcome of power_iteration_rho.

    rho is the midpoint of the final two-sided bracket [lower, upper];
    residual is the bracket width upper - lower; the eigenvector is positive
    and normalized to max entry 1.
    """

    rho: float
    eigenvector: np.ndarray
    iterations: int
    residual: float
    converged: bool
    lower: float
    upper: float


def txk(t: AdjacencyTensor, x) -> float:
    """The homogeneous form T x^k = x . (T x^{k-1})."""
    arr = t._check_vector(x)
    return float(arr @ t.apply(arr))


def s_ratios(t: AdjacencyTensor, x) -> np.ndarray:
    """Collatz-Wielandt ratios (T x^{k-1})_i / x_i^{k-1} for finite positive x."""
    arr = t._check_vector(x)
    if not np.all(np.isfinite(arr) & (arr > 0)):
        raise ValueError("ratios need a finite, strictly positive vector")
    return t.apply(arr) / arr ** (t.order - 1)


def rho_bounds(t: AdjacencyTensor) -> tuple[float, float]:
    """(min row sum, max row sum); both bound the spectral radius, with
    equality exactly when all row sums agree (weakly irreducible case)."""
    rs = t.row_sums()
    return float(rs.min()), float(rs.max())


def weakly_irreducible(t: AdjacencyTensor) -> bool:
    """True when the digraph carried by the nonzero pattern (arc i -> j for
    every positive entry with first index i and j among the others) is
    strongly connected.

    For the adjacency and signless Laplacian tensors of a hypergraph this
    digraph is its co-occurrence graph (the degree diagonal adds only
    self-arcs). It is symmetric, so strong connectivity is plain hypergraph
    connectivity.
    """
    return is_connected(t.hypergraph)


def _newton_pays(k: int, n: int, slots: int, power_steps: int, contraction: float, reduction: float) -> bool:
    """True once the power steps taken, or half the estimate of those still
    needed, cost more than the Newton-Noda steps that would finish, for an
    order-k, dimension-n operator whose apply reads `slots` stored entries.

    The estimate assumes that the bracket keeps narrowing by the factor
    contraction of the last power step until it has narrowed by the factor
    reduction. Early steps can run slower or faster than that, so the
    estimate is halved, and the count of steps taken caps the loss when it
    runs short: the power steps then cost at most as much as the
    Newton-Noda steps that follow them.
    """
    steps_left = math.log(reduction) / math.log(contraction) if contraction < 1 else math.inf
    power_cost = max(power_steps, steps_left / 2) * (slots + _POWER_STEP_SLOTS)
    steps = _NODA_STEPS if k == 2 else _NEWTON_STEPS
    newton_cost = steps * (n * n + n**3 * _SOLVE_SLOTS_PER_CUBE + _NEWTON_STEP_SLOTS)
    return power_cost > newton_cost


def _newton_noda_step(jac: np.ndarray, k: int, x: np.ndarray, lam: float) -> np.ndarray | None:
    """Next iterate from positive x, with jac the Jacobian of x -> T x^{k-1}
    at x and lam the current upper bound on rho.

    Solves M w = x^{[k-1]} for M = (k-1) lam diag(x^{k-2}) - jac, the
    Jacobian of lam x^{[k-1]} - T x^{k-1}, and returns the weighted
    geometric mean x^{(k-2)/(k-1)} w^{1/(k-1)}, rescaled to max entry 1. Its
    first-order part is the Newton step on (x, lambda). M is a nonsingular
    M-matrix when lam > rho, so w > 0; then, by the AM-GM inequality on each
    edge term, every Collatz-Wielandt ratio of the result lies below lam.
    For k = 2 the result is w, Noda's shifted inverse iteration. None when
    the solve fails or the result is not finite and strictly positive.
    """
    m = -jac
    m[np.diag_indices(len(x))] += (k - 1) * lam * x ** (k - 2)
    try:
        w = np.linalg.solve(m, x ** (k - 1))
    except np.linalg.LinAlgError:
        return None
    if not np.all(w > 0):
        return None
    x = x ** ((k - 2) / (k - 1)) * w ** (1.0 / (k - 1))
    if not (np.all(np.isfinite(x)) and np.all(x > 0)):
        return None
    return x / x.max()


class _AndersonMixer:
    """Type-II Anderson mixing of the power step (Walker and Ni, SIAM J.
    Numer. Anal. 49, 2011), for the loop above _NEWTON_MAX_DIM.

    Keeps the last _ANDERSON_DEPTH differences dG of the power steps g and
    dF of their residuals f = g - x, with the Gram matrix of dF updated one
    row per step. Once the history is full it proposes g - dG gamma, gamma
    the lightly regularised least squares solution of dF gamma = f. A
    proposal that is not finite and strictly positive, or a failed solve,
    clears the history and leaves g; the history then refills over plain
    power steps.
    """

    def __init__(self, n: int):
        self._dg = np.empty((_ANDERSON_DEPTH, n))
        self._df = np.empty((_ANDERSON_DEPTH, n))
        self._gram = np.empty((_ANDERSON_DEPTH, _ANDERSON_DEPTH))
        # Multiplies the Gram matrix into its ridge-regularised form.
        self._ridge = np.eye(_ANDERSON_DEPTH) * _ANDERSON_RIDGE + 1.0
        self._last: tuple[np.ndarray, np.ndarray] | None = None
        self._count = 0  # differences recorded since the history was cleared

    def clear(self) -> None:
        self._count = 0

    def propose(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The next iterate after x, whose power step is g: g itself, or a
        mix of the history that is strictly positive with max entry 1."""
        f = g - x
        if self._last is not None:
            i = self._count % _ANDERSON_DEPTH
            np.subtract(g, self._last[0], out=self._dg[i])
            np.subtract(f, self._last[1], out=self._df[i])
            self._count += 1
            kept = min(self._count, _ANDERSON_DEPTH)
            self._gram[i, :kept] = self._gram[:kept, i] = self._df[:kept] @ self._df[i]
        self._last = g, f
        if self._count < _ANDERSON_DEPTH:
            return g
        try:
            gamma = np.linalg.solve(self._gram * self._ridge, self._df @ f)
        except np.linalg.LinAlgError:
            self.clear()
            return g
        mixed = g - gamma @ self._dg
        top = mixed.max()
        if mixed.min() > 0 and top < math.inf:  # both false for NaN
            mixed /= top
            return mixed
        self.clear()
        return g


def _bracketed_iteration(t: AdjacencyTensor, tol: float, max_iter: int):
    """The loop behind power_iteration_rho. Returns (x, iterations, lower,
    upper, converged) with the bracket of the ratios shifted by 1."""
    k, n = t.order, t.dim
    slots = t.hypergraph.m * k
    newton_ready = n <= _NEWTON_MAX_DIM
    mixer = None if newton_ready else _AndersonMixer(n)
    plain = None  # the power step an Anderson proposal x replaced
    newton = False
    x = np.ones(n)
    lower = upper = width = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        xk = x ** (k - 1)
        y = t.apply(x) + xk
        s = y / xk
        lower = float(s.min())
        upper = float(s.max())
        if upper - lower <= tol * upper:
            return x, iterations, lower, upper, True
        if plain is not None and upper - lower > width:
            # The proposal widened the bracket: back to the power step.
            x, plain = plain, None
            mixer.clear()
            continue
        if newton_ready and not newton and width < math.inf:
            reduction = tol * upper / (upper - lower)
            newton = _newton_pays(k, n, slots, iterations - 1, (upper - lower) / width, reduction)
        width = upper - lower
        step = _newton_noda_step(t.jacobian(x), k, x, upper - 1.0) if newton else None
        if step is None:
            step = y ** (1.0 / (k - 1))
            step /= step.max()
            if mixer is not None:
                plain, step = step, mixer.propose(x, step)
                if step is plain:
                    plain = None
        x = step
    return x, iterations, lower, upper, False


def power_iteration_rho(
    t: AdjacencyTensor, tol: float = 1e-10, max_iter: int = 1_000_000
) -> SpectralResult:
    """Spectral radius of the tensor of a connected hypergraph.

    Starts from the all-ones vector x and, at each step, forms the ratios
    y_i / x_i^{k-1} of y = T x^{k-1} + x^{[k-1]} (diagonal shift 1), which
    enclose rho(T) + 1. The loop stops when that bracket is narrower than
    tol * upper and reports its midpoint minus the shift.

    Otherwise x moves on by the power step x = y^{[1/(k-1)]}, rescaled to
    max entry 1, until the power steps taken, or those the bracket's
    contraction over the last one says are still needed, would cost more
    than the Newton-Noda steps that finish (about ten, four for k = 2);
    from then on, by Newton-Noda steps. Only tensors of dimension at most
    2048 take them, and a Newton-Noda step whose linear solve fails or whose
    result is not strictly positive is replaced by the power step. Above
    that dimension each power step is Anderson-mixed with the last five; a
    mix that is not strictly positive, or whose bracket turns out wider
    than the one before, gives way to the plain power step, and mixing
    pauses until five new power steps are recorded. Either way x stays
    positive with max entry 1, so the final bracket is a Collatz-Wielandt
    bracket however x was found.
    """
    check_solver_controls(tol, max_iter)
    if not weakly_irreducible(t):
        raise ValueError("tensor is not weakly irreducible: the hypergraph is not connected")
    x, iterations, lower, upper, converged = _bracketed_iteration(t, tol, max_iter)
    return SpectralResult(
        rho=0.5 * (lower + upper) - 1.0,
        eigenvector=x,
        iterations=iterations,
        residual=upper - lower,
        converged=converged,
        lower=lower - 1.0,
        upper=upper - 1.0,
    )


def check_subsolution(t: AdjacencyTensor, y, mu: float) -> str:
    """Compare T y^{k-1} against mu * y^{[k-1]} coordinatewise.

    Returns "strictly-below" when <= holds everywhere with < somewhere
    (certifying rho(t) < mu for weakly irreducible t), "strictly-above" for
    the mirror case (rho(t) > mu), else "inconclusive". Comparisons are
    exact float comparisons; callers supply mu with their own margin. y must
    be finite, nonnegative and nonzero, and mu finite.
    """
    arr = t._check_vector(y)
    if not np.all(np.isfinite(arr) & (arr >= 0)) or not np.any(arr > 0):
        raise ValueError("y must be finite, nonnegative and nonzero")
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu!r}")
    lhs = t.apply(arr)
    rhs = mu * arr ** (t.order - 1)
    if np.all(lhs <= rhs) and np.any(lhs < rhs):
        return "strictly-below"
    if np.all(lhs >= rhs) and np.any(lhs > rhs):
        return "strictly-above"
    return "inconclusive"


def lift_vector(x, bmap: BlowupMap) -> np.ndarray:
    """Lift a positive base-graph vector to the blown-up hypergraph.

    Every vertex in the block of base vertex v receives x_v^{2/k}. Only
    the s = k/2 blow-up preserves eigenpairs this way, so maps with fresh
    edge vertices are rejected.
    """
    if not bmap.half_edge_case:
        raise ValueError("lifting a vector needs the s = k/2 blow-up")
    arr = np.asarray(x, dtype=float)
    if arr.shape != (len(bmap.vertex_blocks),):
        raise ValueError("vector length must match the base vertex count")
    if not np.all(np.isfinite(arr) & (arr > 0)):
        raise ValueError("lifting needs a finite, strictly positive vector")
    out = np.empty(bmap.total_vertices)
    for v, block in enumerate(bmap.vertex_blocks):
        out[list(block)] = arr[v] ** (2.0 / bmap.k)
    return out


def half_edge_constancy(result: SpectralResult, bmap: BlowupMap) -> float:
    """Largest within-block spread of the computed eigenvector.

    The blow-up's block-exchanging automorphisms force the positive
    eigenvector to be constant on every block, so this is a convergence
    diagnostic: values near zero confirm the symmetry.
    """
    vec = np.asarray(result.eigenvector, dtype=float)
    if vec.shape != (bmap.total_vertices,):
        raise ValueError("eigenvector length must match the blow-up size")
    spread = 0.0
    for block in bmap.vertex_blocks + bmap.edge_blocks:
        if block:
            vals = vec[list(block)]
            spread = max(spread, float(vals.max() - vals.min()))
    return spread
