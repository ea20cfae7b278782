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

The solver, power_iteration_rho, evaluates that bracket once per step, on
the shifted operator T + I: the ratios y_i / x_i^{k-1} of y = T x^{k-1} +
x^{[k-1]} enclose rho(T) + 1, and the solve stops when they are no wider
than tol times their upper end. Between two evaluations it takes a step of
the shifted power iteration (Ng, Qi and Zhou, SIAM J. Matrix Anal. Appl.
2009), x = y^{[1/(k-1)]}, or a Newton-Noda step (after Guo, Lin and Liu,
Numer. Math. 137, 2017): one dense linear solve of one scaled system, which
converges quadratically near the radius and, up to rounding, never raises
the upper bound. That system is a diagonal minus one rank-one term per
edge, so the step solves it either as the n x n vertex system or, by the
Woodbury identity, as an m x m edge system, whichever costs less;
hypergraphs with fewer edges than vertices, such as the half-edge lifts and
loose paths, take the edge system. A graph's (k = 2) vertex system is its
matrix with a shifted diagonal, and the matrix does not depend on x: its
negation is built once per tensor, on its first step, so each step is one
copy, one diagonal shift and one solve (Noda's shifted inverse iteration).
Newton-Noda steps start once the power steps taken, or those still needed
by the bracket's contraction, would cost more than the about ten
Newton-Noda steps (four for k = 2) that finish; so inputs with a clear
spectral gap stay on power steps. When the system solved would be larger
than 2048 there are no Newton-Noda steps; instead each power step is mixed
with the last five by type-II Anderson acceleration (Walker and Ni, SIAM
J. Numer. Anal. 49, 2011). A mix whose bracket turns out wider than the one
before is replaced by the power step it displaced, and mixing pauses until
five new power steps are recorded.

Every vector the solve uses, whether its start (all ones, or a start of the
caller's), a power step, a Newton-Noda step or an Anderson mix, passes one
test, _rescaled: it is finite and strictly positive, and rescaled to max
entry 1 its x^{[k-1]} stays in the normal double range, where the ratios
keep enough bits for the bracket to close. A Newton-Noda step or mix that
fails the test, or a solve that fails, gives way to the power step; a power
step that fails it ends the solve unconverged, as on the paper's pendant odd
cycles past a few thousand vertices, whose Perron vector decays
geometrically away from the pendant. So every bracket reported is a
Collatz-Wielandt bracket, evaluated at the positive vector returned with
it, however that vector was found and however the solve stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constructions import BlowupMap
from .core import Hypergraph, check_solver_controls, is_connected

__all__ = [
    "AdjacencyTensor",
    "SignlessLaplacianTensor",
    "SpectralResult",
    "rho_bounds",
    "weakly_irreducible",
    "power_iteration_rho",
    "lift_vector",
    "half_edge_constancy",
]

# Largest Newton-Noda system, vertex (n x n) or edge (m x m), as a memory
# bound: a vertex step raised the peak RSS by 106 MB at this size (about
# three dense float arrays of that size).
_NEWTON_MAX_DIM = 2048

# Newton-Noda steps that finish a solve from where the power iteration
# hands over. From the all-ones vector, 7 to 13 were measured on
# pendant-cycle lifts, loose paths and random hypergraphs with k = 3..40,
# and about 4.5 on the connected graphs on 7 vertices (k = 2, where the step
# is Noda's).
_NEWTON_STEPS = 10
_NODA_STEPS = 4

# Step costs in edge slots of apply: a power step costs m * k plus a fixed
# 1500, a Newton-Noda step n^2 for its system plus n^3 / 700 for the solve
# plus a fixed 3000. Fitted for n = 7..2048 on a 2-vCPU x86_64 host
# (Python 3.11, numpy 2.4, OpenBLAS), each estimate within 1.5x of the
# measured time, when a slot cost about 20 ns. The edge system is priced in
# the same units, m^2 + sum deg(u)^2 to assemble it plus m^3 / 700 for the
# solve: its solves took 12-19 ns per slot at m = 100..900 on the same host,
# the vertex solves 14-27 ns per slot at n = 200..1200. The column-kernel
# apply takes 4-6 ns per slot plus 10-25 us per call (k = 3..8,
# m = 500..8000, same host), so these prices now overstate power steps on
# large inputs; they are kept as fitted, since refitting moves the switch
# points and so the output.
_POWER_STEP_SLOTS = 1500
_NEWTON_STEP_SLOTS = 3000
_SOLVE_SLOTS_PER_CUBE = 1 / 700

# Above _NEWTON_MAX_DIM: power steps are mixed over this many past steps,
# the Gram matrix's diagonal raised by this fraction of itself.
_ANDERSON_DEPTH = 5
_ANDERSON_RIDGE = 1e-12

_TINY = float(np.finfo(float).tiny)  # the smallest normal double


class AdjacencyTensor:
    """Adjacency tensor of a k-uniform hypergraph, kept implicit: the
    solvers need only apply (x -> A x^{k-1}), row_sums and the index tables
    of one scaled Newton-Noda system. A SimpleGraph is the hypergraph with
    k = 2, whose tensor is its adjacency matrix.

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
        # Index tables of the two Newton-Noda systems, and for k = 2 the
        # negated adjacency matrix, built on the first step that needs one:
        # they do not depend on x.
        self._slot_pair_table: np.ndarray | None = None
        self._edge_pairs: tuple[np.ndarray, np.ndarray] | None = None
        self._negated_adjacency: np.ndarray | None = None
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
        # For a graph each end's product is the other end's entry, gathered
        # directly: the same values, without the three multiplies by 1.
        self._partners = self._edges[:, ::-1].copy() if h.k == 2 else None

    def __reduce__(self):
        # Copies and pickles rebuild the buffers: a copied column view would
        # no longer alias its copied buffer.
        return type(self), (self.hypergraph,)

    def _check_vector(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.dim,):
            raise ValueError(f"expected a vector of length {self.dim}, got shape {arr.shape}")
        return arr

    def apply(self, x, xk=None) -> np.ndarray:
        """A x^{k-1} as a length-n vector. A caller that holds the entrywise
        power x^{[k-1]} may pass it as xk, for the diagonal of Q."""
        return self._adjacency(self._check_vector(x))

    def _adjacency(self, x: np.ndarray) -> np.ndarray:
        """A x^{k-1} for a checked x."""
        if not self.hypergraph.m:
            return np.zeros(self.dim)
        # Every index is a vertex, so "clip" changes nothing; it only spares
        # the buffered copy that the default bounds check makes of out.
        if self._partners is not None:
            x.take(self._partners, out=self._gathered, mode="clip")
        else:
            x.take(self._edges, out=self._gathered, mode="clip")
            for a, b, out in self._products:
                np.multiply(a, b, out=out)
            np.multiply(self._left, self._right, out=self._gathered)
        # bincount adds in the same order as np.add.at, at a fraction of the cost.
        return np.bincount(self._edges.ravel(), weights=self._gathered.ravel(), minlength=self.dim)

    def row_sums(self) -> np.ndarray:
        """r_i = sum of all entries with first index i: each incident edge
        contributes (k-1)! entries of 1/(k-1)!."""
        return self._deg.copy()

    def _slot_pairs(self) -> np.ndarray:
        """Every ordered pair of distinct slots (i, j) of every edge e, as
        the flat index E[e, i] * n + E[e, j] of an n x n matrix, edge by edge:
        m k (k-1) indices. Entry (u, v) takes its terms in edge order, so
        (u, v) and (v, u) add the same terms in the same order."""
        if self._slot_pair_table is None:
            i, j = np.nonzero(~np.eye(self.order, dtype=bool))
            self._slot_pair_table = (self._edges[:, i] * self.dim + self._edges[:, j]).ravel()
        return self._slot_pair_table

    def _shared_vertex_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every ordered pair of edge slots that hold the same vertex, each
        slot with itself included: sum deg(u)^2 pairs, given as the flat
        index e * m + f of the two edges and the vertex they share."""
        if self._edge_pairs is None:
            m, k = self._edges.shape
            slot_vertex = self._edges.ravel()
            by_vertex = np.argsort(slot_vertex, kind="stable")
            deg = self._deg.astype(np.intp)
            vertex = slot_vertex[by_vertex]
            size = deg[vertex]
            # Sorted position i, of vertex v, pairs with the positions
            # first[v], ..., first[v] + deg(v) - 1 that v occupies.
            first = np.cumsum(deg) - deg
            within = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
            rows = np.repeat(by_vertex, size)
            cols = by_vertex[np.repeat(first[vertex], size) + within]
            self._edge_pairs = (rows // k) * m + cols // k, slot_vertex[rows]
        return self._edge_pairs


class SignlessLaplacianTensor(AdjacencyTensor):
    """Signless Laplacian Q = D + A of a k-uniform hypergraph: the adjacency
    tensor plus the degree diagonal, which each method adds to the
    adjacency result. For k = 2 it is the matrix D + A of a SimpleGraph."""

    kind = "signless-laplacian"

    def apply(self, x, xk=None) -> np.ndarray:
        """Q x^{k-1}: A x^{k-1} plus deg_u x_u^{k-1}, the latter from xk,
        the entrywise power x^{[k-1]}, when given."""
        x = self._check_vector(x)
        if xk is None:
            xk = x if self.order == 2 else x ** (self.order - 1)  # x ** 1 is x itself
        return self._adjacency(x) + self._deg * xk

    def row_sums(self) -> np.ndarray:
        return super().row_sums() + self._deg


_TENSORS = {t.kind: t for t in (AdjacencyTensor, SignlessLaplacianTensor)}  # by operator name


@dataclass(frozen=True)
class SpectralResult:
    """Outcome of power_iteration_rho.

    rho is the midpoint of the final two-sided bracket [lower, upper]; the
    eigenvector is positive and normalized to max entry 1. _underflow marks
    a solve that stopped because its next power step would underflow.
    """

    rho: float
    eigenvector: np.ndarray
    iterations: int
    converged: bool
    lower: float
    upper: float
    _underflow: bool = field(default=False, repr=False, compare=False)


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


def _solve_price(size: int) -> float:
    """Slots to assemble and solve a dense size x size system."""
    return size * size + size**3 * _SOLVE_SLOTS_PER_CUBE


def _newton_pays(k: int, price: float, slots: int, power_steps: int, contraction: float, reduction: float) -> bool:
    """True once the power steps taken, or half the estimate of those still
    needed, cost more than the Newton-Noda steps that would finish, for an
    order-k operator whose apply reads `slots` stored entries and whose
    Newton-Noda system costs `price` slots to build and solve.

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
    newton_cost = steps * (price + _NEWTON_STEP_SLOTS)
    return power_cost > newton_cost


def _scaled_solve(t: AdjacencyTensor, x: np.ndarray, lam: float, edge_system: bool) -> np.ndarray:
    """w = M^{-1} x^{[k-1]}, M as in _newton_noda_step, through the scaled
    system X M X = H - E diag(P) E^T: X = diag(x), E the n x m vertex-edge
    incidence matrix, P_e the product of x over edge e, H = diag(h) with
    h_u = (k-1) lam_u x_u^k + sum_{e at u} P_e, and lam_u = lam for A,
    lam - deg(u) for Q.

    The vertex form assembles that n x n matrix, whose diagonal is
    (k-1) lam_u x_u^k, solves it against x^{[k]} and scales the solution
    by x. The edge form is the Woodbury identity, w = X H^{-1} (x^{[k]} +
    E P z) with (I - E^T H^{-1} E P) z = E^T H^{-1} x^{[k]}: one m x m solve
    that inverts only h, never an entry of x or P, so a tiny product cannot
    overflow. A graph's (k = 2) vertex form is unscaled, diag(lam_u) - A
    against x, with -A built on the tensor's first step.
    """
    k, n = t.order, t.dim
    if isinstance(t, SignlessLaplacianTensor):
        lam = lam - t._deg  # Q's diagonal moves from the Jacobian into the shift
    if k == 2 and not edge_system:
        if t._negated_adjacency is None:
            counts = np.bincount(t._slot_pairs(), minlength=n * n).reshape(n, n)
            t._negated_adjacency = np.negative(counts, dtype=float)
        system = t._negated_adjacency.copy()
        system.ravel()[:: n + 1] += lam  # the diagonal, as a strided view
        return np.linalg.solve(system, x)
    E = t._edges
    prod = np.prod(x[E], axis=1)
    xk = x**k
    diagonal = (k - 1) * lam * xk
    if not edge_system:
        weights = np.repeat(prod, k * (k - 1))
        system = np.bincount(t._slot_pairs(), weights=weights, minlength=n * n).reshape(n, n)
        np.negative(system, out=system)
        system.ravel()[:: n + 1] += diagonal
        return x * np.linalg.solve(system, xk)
    m = len(E)
    h_inv = 1.0 / (diagonal + np.bincount(E.ravel(), weights=np.repeat(prod, k), minlength=n))
    pair_edges, pair_vertex = t._shared_vertex_pairs()
    system = np.bincount(pair_edges, weights=h_inv[pair_vertex], minlength=m * m).reshape(m, m)
    system *= -prod
    system.ravel()[:: m + 1] += 1.0
    z = np.linalg.solve(system, (xk * h_inv)[E].sum(axis=1))
    return x * h_inv * (xk + np.bincount(E.ravel(), weights=np.repeat(prod * z, k), minlength=n))


def _rescaled(v: np.ndarray, k: int) -> np.ndarray | None:
    """v / max(v) when v is finite and strictly positive and the (k-1)th
    power of every entry of v / max(v) is a normal double; else None. The one
    test of every vector a solve may use: its start, power steps,
    Newton-Noda steps and Anderson mixes. min(v / top) is exactly
    min(v) / top, so the test reads the two extremes only."""
    low, top = v.min(), v.max()
    if not (low > 0 and top < math.inf) or (low / top) ** (k - 1) < _TINY:  # NaN fails
        return None
    return v / top


def _newton_noda_step(t: AdjacencyTensor, x: np.ndarray, lam: float, edge_system: bool) -> np.ndarray | None:
    """Next iterate from positive x, with lam the current upper bound on rho.

    Solves M w = x^{[k-1]} for M = (k-1) lam diag(x^{k-2}) - J, J the
    Jacobian of x -> T x^{k-1} at x, so M is the Jacobian of
    lam x^{[k-1]} - T x^{k-1}; by _scaled_solve, in its m x m edge form
    when edge_system, else its n x n vertex form. Returns the weighted
    geometric mean x^{(k-2)/(k-1)} w^{1/(k-1)}, rescaled to max entry 1. Its
    first-order part is the Newton step on (x, lambda). M is a nonsingular
    M-matrix when lam > rho, so w > 0; then, by the AM-GM inequality on each
    edge term, every Collatz-Wielandt ratio of the result lies below lam.
    For k = 2 the mean is w itself, and the step is one solve: Noda's
    shifted inverse iteration, w / max(w). None when the solve fails or its
    result fails _rescaled.
    """
    k = t.order
    try:
        w = _scaled_solve(t, x, lam, edge_system)
    except np.linalg.LinAlgError:
        return None
    if k > 2 and (w > 0).all():  # any other w fails _rescaled as it is
        w = x ** ((k - 2) / (k - 1)) * w ** (1.0 / (k - 1))
    return _rescaled(w, k)


class _AndersonMixer:
    """Type-II Anderson mixing of the power step (Walker and Ni, SIAM J.
    Numer. Anal. 49, 2011), for the loop above _NEWTON_MAX_DIM.

    Keeps the last _ANDERSON_DEPTH differences dG of the power steps g and
    dF of their residuals f = g - x, with the Gram matrix of dF updated one
    row per step. Once the history is full it proposes g - dG gamma, gamma
    the lightly regularised least squares solution of dF gamma = f. A
    proposal that fails _rescaled, or a failed solve, clears the history and
    leaves g; the history then refills over plain power steps.
    """

    def __init__(self, n: int, k: int):
        self._k = k
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
            mixed = _rescaled(g - gamma @ self._dg, self._k)
        except np.linalg.LinAlgError:
            mixed = None
        if mixed is None:
            self.clear()
            return g
        return mixed


def _bracketed_iteration(t: AdjacencyTensor, x: np.ndarray, tol: float, max_iter: int) -> SpectralResult:
    """The loop behind power_iteration_rho, from x positive with max entry 1
    and x^{[k-1]} normal, and the one place a solve ends: it leaves at
    convergence, at max_iter or when the next power step fails _rescaled,
    and reports the bracket evaluated at the x it returns."""
    k, n, m = t.order, t.dim, t.hypergraph.m
    slots = m * k
    # Newton-Noda steps solve the cheaper of the vertex and the edge system.
    vertex_price = _solve_price(n)
    edge_price = _solve_price(m) + float(t._deg @ t._deg)
    edge_system = edge_price < vertex_price
    size, price = (m, edge_price) if edge_system else (n, vertex_price)
    newton_ready = size <= _NEWTON_MAX_DIM
    mixer = None if newton_ready else _AndersonMixer(n, k)
    plain = None  # the power step an Anderson proposal x replaced
    newton = underflow = False
    width = math.inf
    for iterations in range(1, max_iter + 1):
        xk = x if k == 2 else x ** (k - 1)  # x ** 1 is x itself
        y = t.apply(x, xk) + xk
        s = y / xk
        lower = float(s.min())
        upper = float(s.max())
        converged = upper - lower <= tol * upper
        if converged or iterations == max_iter:
            break
        if plain is not None and upper - lower > width:
            # The proposal widened the bracket: back to the power step.
            x, plain = plain, None
            mixer.clear()
            continue
        if newton_ready and not newton and width < math.inf:
            reduction = tol * upper / (upper - lower)
            newton = _newton_pays(k, price, slots, iterations - 1, (upper - lower) / width, reduction)
        width = upper - lower
        step = _newton_noda_step(t, x, upper - 1.0, edge_system) if newton else None
        if step is None:
            step = _rescaled(y if k == 2 else y ** (1.0 / (k - 1)), k)
            underflow = step is None
            if underflow:
                break
            if mixer is not None:
                plain, step = step, mixer.propose(x, step)
                if step is plain:
                    plain = None
        x = step
    return SpectralResult(
        rho=0.5 * (lower + upper) - 1.0,
        eigenvector=x,
        iterations=iterations,
        converged=converged,
        lower=lower - 1.0,
        upper=upper - 1.0,
        _underflow=underflow,
    )


def power_iteration_rho(
    t: AdjacencyTensor, tol: float = 1e-10, max_iter: int = 1_000_000, *, start=None
) -> SpectralResult:
    """Spectral radius of the tensor of a connected hypergraph, bracketed;
    the module docstring describes the steps.

    Start: the all-ones vector or, when start is given, start rescaled to max
    entry 1. A start must pass the test every iterate passes: shape (n,),
    finite and strictly positive, and at max entry 1 every entry's (k-1)th
    power a normal double. A vector near the Perron vector, such as that of
    a graph just solved, saves steps.

    Stop: each step evaluates the Collatz-Wielandt ratios of the current x,
    shifted by 1, and the solve ends at the first of
    - a shifted bracket no wider than tol times its upper end: converged=True;
    - the max_iter-th bracket: converged=False;
    - a power step whose x^{[k-1]} would leave the normal double range:
      converged=False and _underflow=True.
    Each stop returns the last bracket [lower, upper], shifted back, its
    midpoint as rho, the number of brackets evaluated as iterations, and as
    eigenvector the x, positive with max entry 1, at which that bracket was
    evaluated.

    Errors: ValueError for a tol that is not a real number in [1e-14, 1), a
    max_iter that is not an integer of at least 1, a hypergraph that is not
    connected, or a start that fails the test above.
    """
    check_solver_controls(tol, max_iter)
    if not weakly_irreducible(t):
        raise ValueError("tensor is not weakly irreducible: the hypergraph is not connected")
    x = np.ones(t.dim) if start is None else _rescaled(t._check_vector(start), t.order)
    if x is None:
        raise ValueError("start must be finite, strictly positive and, at max entry 1, have normal (k-1)th powers")
    return _bracketed_iteration(t, x, tol, max_iter)


def _converged_rho(result: SpectralResult) -> float:
    """result.rho; RuntimeError, naming why, when the solve did not converge."""
    if not result.converged:
        why = ": the eigenvector underflowed after" if result._underflow else " in"
        raise RuntimeError(f"power iteration did not converge{why} {result.iterations} steps")
    return result.rho


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
