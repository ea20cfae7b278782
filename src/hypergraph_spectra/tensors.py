"""Adjacency and signless Laplacian tensors of uniform hypergraphs.

For a k-uniform hypergraph the adjacency tensor A has order k and dimension
n, with entry 1/(k-1)! at every permutation of every edge. The signless
Laplacian is Q = D + A with vertex degrees on the diagonal. Tensors here are
kept implicit: all spectral work needs only x -> T x^{k-1}, where

    (A x^{k-1})_u = sum over edges e containing u of prod_{w in e, w != u} x_w.

An eigenpair satisfies T x^{k-1} = lambda x^{[k-1]} with x^{[k-1]} the
entrywise power. For nonnegative weakly irreducible tensors the spectral
radius is the unique eigenvalue with a strictly positive eigenvector, and a
power iteration on the diagonally shifted tensor converges to it with
two-sided bounds at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constructions import BlowupMap
from .core import Hypergraph, check_solver_controls, is_connected

__all__ = [
    "ImplicitTensor",
    "AdjacencyTensor",
    "SignlessLaplacianTensor",
    "DenseTensor",
    "identity_tensor",
    "SpectralResult",
    "txk",
    "row_sums",
    "s_ratios",
    "rho_bounds",
    "weakly_irreducible",
    "power_iteration_rho",
    "check_subsolution",
    "lift_vector",
    "half_edge_constancy",
]

# Entry tables grow as n^k; dense tensors are only meant for desk-scale
# cross-checks.
_DENSE_MAX_ORDER = 4
_DENSE_MAX_DIM = 6


class ImplicitTensor:
    """Order-k, dimension-n nonnegative tensor seen through its action."""

    kind: str
    order: int
    dim: int

    def apply(self, x) -> np.ndarray:
        """T x^{k-1} as a length-n vector."""
        raise NotImplementedError

    def row_sums(self) -> np.ndarray:
        """r_i = sum of all entries with first index i."""
        raise NotImplementedError

    def _arc_lists(self) -> list[list[int]]:
        """Successor lists of the digraph with an arc i -> j whenever some
        positive entry has first index i and j among the rest."""
        raise NotImplementedError

    def _check_vector(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.dim,):
            raise ValueError(f"expected a vector of length {self.dim}, got shape {arr.shape}")
        return arr


class AdjacencyTensor(ImplicitTensor):
    """Adjacency tensor of a k-uniform hypergraph."""

    kind = "adjacency"

    def __init__(self, h: Hypergraph):
        self.hypergraph = h
        self.order = h.k
        self.dim = h.n
        if h.m:
            self._edges = np.array(h.edges, dtype=np.intp)
        else:
            self._edges = np.empty((0, h.k), dtype=np.intp)
        self._deg = np.bincount(self._edges.ravel(), minlength=h.n).astype(float)

    def apply(self, x) -> np.ndarray:
        x = self._check_vector(x)
        E = self._edges
        X = x[E]  # (m, k)
        # Leave-one-out products per edge, exact even with zero entries.
        left = np.ones_like(X)
        np.cumprod(X[:, :-1], axis=1, out=left[:, 1:])
        right = np.ones_like(X)
        np.cumprod(X[:, :0:-1], axis=1, out=right[:, -2::-1])
        # bincount adds in the same order as np.add.at, at a fraction of the cost.
        return np.bincount(E.ravel(), weights=(left * right).ravel(), minlength=self.dim)

    def row_sums(self) -> np.ndarray:
        # Each incident edge contributes (k-1)! entries of 1/(k-1)!.
        return self._deg.copy()


class SignlessLaplacianTensor(ImplicitTensor):
    """Degree diagonal plus adjacency tensor of a k-uniform hypergraph."""

    kind = "signless-laplacian"

    def __init__(self, h: Hypergraph):
        self.hypergraph = h
        self.order = h.k
        self.dim = h.n
        self._adj = AdjacencyTensor(h)
        self._deg = self._adj._deg

    def apply(self, x) -> np.ndarray:
        x = self._check_vector(x)
        return self._adj.apply(x) + self._deg * x ** (self.order - 1)

    def row_sums(self) -> np.ndarray:
        return 2.0 * self._deg


class DenseTensor(ImplicitTensor):
    """Tensor given by its full entry table (nonnegative, desk-scale only)."""

    kind = "dense"

    def __init__(self, table):
        arr = np.asarray(table, dtype=float)
        if arr.ndim < 2 or arr.ndim > _DENSE_MAX_ORDER:
            raise ValueError(f"dense tensors support order 2..{_DENSE_MAX_ORDER}")
        dims = set(arr.shape)
        if len(dims) != 1:
            raise ValueError("entry table must be cubical")
        if arr.shape[0] > _DENSE_MAX_DIM:
            raise ValueError(f"dense tensors support dimension up to {_DENSE_MAX_DIM}")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("entries must be nonnegative and finite")
        self.table = arr
        self.order = arr.ndim
        self.dim = arr.shape[0]

    def apply(self, x) -> np.ndarray:
        x = self._check_vector(x)
        out = self.table
        for _ in range(self.order - 1):
            out = out @ x
        return out

    def row_sums(self) -> np.ndarray:
        return self.table.reshape(self.dim, -1).sum(axis=1)

    def _arc_lists(self) -> list[list[int]]:
        nbr: list[set[int]] = [set() for _ in range(self.dim)]
        for idx in np.argwhere(self.table > 0):
            i = int(idx[0])
            nbr[i].update(int(j) for j in idx[1:])
        return [sorted(s) for s in nbr]


def identity_tensor(order: int, dim: int) -> DenseTensor:
    """Diagonal tensor with t_{i,i,...,i} = 1; satisfies I x^{k-1} = x^{[k-1]}."""
    table = np.zeros((dim,) * order)
    for i in range(dim):
        table[(i,) * order] = 1.0
    return DenseTensor(table)


@dataclass(frozen=True)
class SpectralResult:
    """Outcome of a bracketed power iteration.

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


def txk(t: ImplicitTensor, x) -> float:
    """The homogeneous form T x^k = x . (T x^{k-1})."""
    arr = t._check_vector(x)
    return float(arr @ t.apply(arr))


def row_sums(t: ImplicitTensor) -> np.ndarray:
    return t.row_sums()


def s_ratios(t: ImplicitTensor, x) -> np.ndarray:
    """Collatz-Wielandt ratios (T x^{k-1})_i / x_i^{k-1} for positive x."""
    arr = t._check_vector(x)
    if np.any(arr <= 0):
        raise ValueError("ratios need a strictly positive vector")
    return t.apply(arr) / arr ** (t.order - 1)


def rho_bounds(t: ImplicitTensor) -> tuple[float, float]:
    """(min row sum, max row sum); both bound the spectral radius, with
    equality exactly when all row sums agree (weakly irreducible case)."""
    rs = t.row_sums()
    return float(rs.min()), float(rs.max())


def _tarjan_scc(adj: list[list[int]]) -> int:
    """Number of strongly connected components of a successor-list digraph."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    count = 0
    components = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[list[int]] = [[root, 0]]
        while work:
            v, ptr = work[-1]
            if ptr == 0:
                index[v] = low[v] = count
                count += 1
                stack.append(v)
                on_stack[v] = 1
            advanced = False
            while work[-1][1] < len(adj[v]):
                w = adj[v][work[-1][1]]
                work[-1][1] += 1
                if index[w] == -1:
                    work.append([w, 0])
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                components += 1
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    if w == v:
                        break
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
    return components


def weakly_irreducible(t: ImplicitTensor) -> bool:
    """True when the digraph carried by the nonzero pattern (arc i -> j for
    every positive entry with first index i and j among the others) is
    strongly connected.

    For adjacency and signless Laplacian tensors this digraph is the
    co-occurrence graph of the hypergraph (the degree diagonal adds only
    self-arcs). It is symmetric, so strong connectivity is plain hypergraph
    connectivity and is tested as such. Other tensors go through Tarjan's
    algorithm on their arc lists.
    """
    if isinstance(t, (AdjacencyTensor, SignlessLaplacianTensor)):
        return is_connected(t.hypergraph)
    return _tarjan_scc(t._arc_lists()) == 1


def power_iteration_rho(
    t: ImplicitTensor, tol: float = 1e-10, max_iter: int = 1_000_000
) -> SpectralResult:
    """Spectral radius of a nonnegative weakly irreducible tensor.

    Iterates y = T x^{k-1} + x^{[k-1]} (diagonal shift 1 keeps the map
    contractive on the positive cone) from the all-ones vector, renormalizing
    x to max-norm 1. At each step the ratios y_i / x_i^{k-1} enclose
    rho(T) + 1; the loop stops when the bracket is narrower than tol * upper
    and reports the midpoint minus the shift.
    """
    check_solver_controls(tol, max_iter)
    if not weakly_irreducible(t):
        raise ValueError("tensor is not weakly irreducible")
    k = t.order
    sigma = 1.0
    x = np.ones(t.dim)
    lower = upper = math.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        xk = x ** (k - 1)
        y = t.apply(x) + sigma * xk
        s = y / xk
        lower = float(s.min())
        upper = float(s.max())
        if upper - lower <= tol * upper:
            converged = True
            break
        x = y ** (1.0 / (k - 1))
        x /= x.max()
    return SpectralResult(
        rho=0.5 * (lower + upper) - sigma,
        eigenvector=x,
        iterations=iterations,
        residual=upper - lower,
        converged=converged,
        lower=lower - sigma,
        upper=upper - sigma,
    )


def check_subsolution(t: ImplicitTensor, y, mu: float) -> str:
    """Compare T y^{k-1} against mu * y^{[k-1]} coordinatewise.

    Returns "strictly-below" when <= holds everywhere with < somewhere
    (certifying rho(t) < mu for weakly irreducible t), "strictly-above" for
    the mirror case (rho(t) > mu), else "inconclusive". Comparisons are
    exact float comparisons; callers supply mu with their own margin.
    """
    arr = t._check_vector(y)
    if np.any(arr < 0) or not np.any(arr > 0):
        raise ValueError("y must be nonnegative and nonzero")
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
    if np.any(arr <= 0):
        raise ValueError("lifting needs a strictly positive vector")
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
