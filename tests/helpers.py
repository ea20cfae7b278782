"""Independent oracles the tests check library routines against.

These deliberately avoid the code paths under test: parity searches scan
all 2^n splits, spectral radii come from numpy's dense symmetric solver,
signless radii of power hypergraphs from a bisection on their base graph's
matrices, GF(2) systems go through eager Gauss-Jordan elimination, the
adjacency action scatters with np.add.at, Jacobians are summed edge by edge
in a loop, the power iteration is the plain shifted loop, strong
connectivity is counted by Tarjan's algorithm on the co-occurrence arc
lists, connected classes come from a scan of every labelled graph, edge
arrays are checked as sorted tuples against a seen-set, files are read
one line at a time with str.splitlines, str.split and int() and written by
str.join, and blow-ups sort the union of their blocks per edge. A few small
builders sit beside them: paths, degrees by an edge scan, a copy without
one edge, and the representative of a graph's class.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from hypergraph_spectra import (
    Hypergraph,
    ParitySystem,
    ParseError,
    SimpleGraph,
    canonical_code,
    graph_code,
    graph_from_code,
)
from hypergraph_spectra.fileio import MAX_VERTICES


def path_graph(n: int) -> SimpleGraph:
    """The path on n vertices, edges (i, i+1)."""
    return SimpleGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def degrees(h: Hypergraph) -> list[int]:
    """The number of edges at each vertex, by a scan of every edge."""
    deg = [0] * h.n
    for e in h.edges:
        for v in e:
            deg[v] += 1
    return deg


def remove_edge(h: Hypergraph, index: int) -> Hypergraph:
    """A copy of h without the edge at the given position, on the same vertices."""
    rest = h.edges[:index] + h.edges[index + 1 :]
    return SimpleGraph(h.n, rest) if isinstance(h, SimpleGraph) else Hypergraph(h.k, h.n, rest)


def canonical_form(g: SimpleGraph) -> SimpleGraph:
    """The representative of g's isomorphism class: the relabelling with the smallest code."""
    return graph_from_code(g.n, canonical_code(g.n, graph_code(g)))


def brute_odd_bipartite(h: Hypergraph) -> bool:
    """Exhaustive search for a split meeting every edge oddly on both sides."""
    assert h.k % 2 == 0
    masks = [sum(1 << v for v in e) for e in h.edges]
    for x in range(1 << h.n):
        for m in masks:
            if (x & m).bit_count() % 2 == 0:
                break
        else:
            return True
    return False


def canonical_edges_reference(rows: list[list[int]], n: int) -> tuple[list[tuple[int, ...]] | None, int | None]:
    """(sorted edge tuples, None), or (None, first row that is out of
    range, repeats a vertex or repeats an earlier row's set)."""
    seen: set[tuple[int, ...]] = set()
    for i, row in enumerate(rows):
        edge = tuple(sorted(row))
        if len(set(edge)) < len(edge) or edge[0] < 0 or edge[-1] >= n or edge in seen:
            return None, i
        seen.add(edge)
    return sorted(seen), None


def adjacency_matrix(g: SimpleGraph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    return a


def signless_laplacian_matrix(g: SimpleGraph) -> np.ndarray:
    a = adjacency_matrix(g)
    return a + np.diag(a.sum(axis=1))


def eig_rho_adjacency(g: SimpleGraph) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(adjacency_matrix(g)))))


def eig_rho_signless(g: SimpleGraph) -> float:
    return float(np.max(np.linalg.eigvalsh(signless_laplacian_matrix(g))))


def power_hypergraph_signless_rho(g: SimpleGraph, k: int) -> float:
    """rho(Q) of the power hypergraph G^{k,1}, which adds k-2 fresh vertices
    to every edge of the connected graph g: the unique lambda > 1 with
    lambda = rho(D + (lambda-1)^{-(k-2)/2} A) of g, found by bisection with
    eigvalsh. The Perron vector is a_v on base vertex v and b_e on the fresh
    vertices of edge uv, with b_e^2 = a_u a_v / (lambda - 1); y_v = a_v^{k/2}
    is then the Perron vector of that matrix. The right side falls as lambda
    rises, and it is at least rho(Q(g)) >= 2 for lambda <= 2 and at most
    rho(Q(g)) <= 2 max degree for lambda >= 2."""
    a = adjacency_matrix(g)
    d = np.diag(a.sum(axis=1))
    lo, hi = 2.0, 2.0 * float(d.max()) + 1.0
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.linalg.eigvalsh(d + (mid - 1.0) ** (-(k - 2) / 2) * a).max() > mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def eager_gf2_solve(system: ParitySystem) -> int | None:
    """Gauss-Jordan over GF(2): every new pivot is cleared from all earlier
    pivot rows. Free variables are set to 0; None when inconsistent."""
    n = system.n_vars
    var_mask = (1 << n) - 1
    pivots: list[tuple[int, int]] = []  # (pivot column, reduced augmented row)
    for mask, b in zip(system.rows, system.rhs):
        row = mask | (b << n)
        for col, prow in pivots:
            if (row >> col) & 1:
                row ^= prow
        if row & var_mask:
            col = (row & -row).bit_length() - 1
            for i, (c, p) in enumerate(pivots):
                if (p >> col) & 1:
                    pivots[i] = (c, p ^ row)
            pivots.append((col, row))
        elif row >> n:
            return None
    x = 0
    for col, prow in pivots:
        # A fully reduced pivot row holds its pivot plus free columns only.
        if prow >> n:
            x |= 1 << col
    return x


def add_at_apply(h: Hypergraph, x: np.ndarray) -> np.ndarray:
    """(A x^{k-1}) scattered with np.add.at from the same leave-one-out
    prefix and suffix products the library forms."""
    E = np.array(h.edges, dtype=np.intp).reshape(h.m, h.k)
    X = x[E]
    left = np.ones_like(X)
    np.cumprod(X[:, :-1], axis=1, out=left[:, 1:])
    right = np.ones_like(X)
    np.cumprod(X[:, :0:-1], axis=1, out=right[:, -2::-1])
    out = np.zeros(h.n)
    np.add.at(out, E, left * right)
    return out


def jacobian_reference(h: Hypergraph, x: np.ndarray, signless: bool = False) -> np.ndarray:
    """Jacobian of x -> A x^{k-1} (or Q x^{k-1} when signless) by a loop
    over edges and ordered vertex pairs: entry (u, v), u != v, adds the
    product of x over e - {u, v} for every edge e holding both; the signless
    Laplacian adds (k-1) x_u^{k-2} to entry (u, u) for every edge at u."""
    jac = np.zeros((h.n, h.n))
    for e in h.edges:
        for u in e:
            if signless:
                jac[u, u] += (h.k - 1) * x[u] ** (h.k - 2)
            for v in e:
                if v != u:
                    jac[u, v] += math.prod(float(x[w]) for w in e if w not in (u, v))
    return jac


def power_iteration_reference(t, tol: float, max_iter: int) -> tuple[int, np.ndarray, float, float]:
    """The fixed-shift power iteration alone: (iterations, x, lower, upper)
    with the bracket of the shifted ratios at the last x."""
    k = t.order
    x = np.ones(t.dim)
    for it in range(1, max_iter + 1):
        xk = x ** (k - 1)
        y = t.apply(x) + xk
        s = y / xk
        lower, upper = float(s.min()), float(s.max())
        if upper - lower <= tol * upper:
            break
        x = y ** (1.0 / (k - 1))
        x /= x.max()
    return it, x, lower, upper


def cooccurrence_arcs(h: Hypergraph) -> list[list[int]]:
    """Successor lists with an arc u -> w whenever u and w share an edge:
    the digraph of the adjacency tensor's nonzero pattern."""
    nbr: list[set[int]] = [set() for _ in range(h.n)]
    for e in h.edges:
        for u in e:
            nbr[u].update(w for w in e if w != u)
    return [sorted(s) for s in nbr]


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


def scan_connected_class_codes(n: int) -> tuple[int, ...]:
    """Canonical codes of the connected graphs on n vertices by scan and
    filter: every labelled code, kept when connected (bitmask Warshall
    closure) and when no vertex permutation maps it lower. 2^(n(n-1)/2)
    codes, so only for small n."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {pair: b for b, pair in enumerate(pairs)}
    codes = np.arange(1 << len(pairs), dtype=np.int64)
    reach = [np.full(codes.shape, 1 << u, dtype=np.int64) for u in range(n)]
    for b, (u, v) in enumerate(pairs):
        bit = (codes >> b) & 1
        reach[u] |= bit << v
        reach[v] |= bit << u
    for k in range(n):
        for u in range(n):
            if u != k:
                reach[u] |= reach[k] & -((reach[u] >> k) & 1)
    codes = codes[reach[0] == (1 << n) - 1]
    for perm in itertools.permutations(range(n)):
        mapped = np.zeros_like(codes)
        for b, (u, v) in enumerate(pairs):
            mapped |= ((codes >> b) & 1) << index[tuple(sorted((perm[u], perm[v])))]
        codes = codes[codes <= mapped]
    return tuple(int(c) for c in codes)


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _ints(tokens: list[str], lineno: int) -> list[int]:
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise ParseError(f"line {lineno}: expected an integer, got {tok!r}") from None
    return out


def line_reader(text: str, magic: str) -> SimpleGraph | Hypergraph:
    """A "graph" or "hypergraph" file read line by line, with the checks
    and ParseError messages of the file format."""
    header_arity = 2 if magic == "graph" else 3
    lines = _significant_lines(text)
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise ParseError("line 1: empty input") from None
    tokens = line.split()
    if tokens[0] != magic:
        raise ParseError(f"line {lineno}: expected {magic!r} header, got {tokens[0]!r}")
    if len(tokens) != 1 + header_arity:
        raise ParseError(f"line {lineno}: {magic!r} header takes {header_arity} integers")
    header = _ints(tokens[1:], lineno)
    n, m = header[-2:]
    if n > MAX_VERTICES:
        raise ParseError(f"line {lineno}: {n} vertices exceed the limit of {MAX_VERTICES}")
    arity = 2 if magic == "graph" else header[0]
    if arity < 2 or n < 1 or m < 0:
        raise ParseError(f"line {lineno}: header values out of range")
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for lineno, line in lines:
        if len(edges) == m:
            raise ParseError(f"line {lineno}: more than {m} edge lines")
        values = _ints(line.split(), lineno)
        if len(values) != arity:
            raise ParseError(f"line {lineno}: expected {arity} vertices, got {len(values)}")
        for v in values:
            if not 0 <= v < n:
                raise ParseError(f"line {lineno}: vertex {v} out of range for n={n}")
        edge = tuple(sorted(values))
        if len(set(edge)) != arity:
            raise ParseError(f"line {lineno}: repeated vertex in edge")
        if edge in seen:
            raise ParseError(f"line {lineno}: duplicate edge {edge}")
        seen.add(edge)
        edges.append(edge)
    if len(edges) != m:
        raise ParseError(f"expected {m} edge lines, got {len(edges)}")
    if magic == "graph":
        return SimpleGraph(n, tuple(edges))  # type: ignore[arg-type]
    return Hypergraph(arity, n, tuple(edges))


def serialize_reference(h: Hypergraph) -> str:
    """A graph or hypergraph file written one edge line at a time with str.join."""
    header = f"graph {h.n} {h.m}" if isinstance(h, SimpleGraph) else f"hypergraph {h.k} {h.n} {h.m}"
    return "\n".join([header] + [" ".join(str(v) for v in e) for e in h.edges]) + "\n"


def blowup_edges_reference(g: SimpleGraph, k: int, s: int) -> list[tuple[int, ...]]:
    """The edges of generalized_power(g, k, s), each the sorted union of the
    s-sets of its ends, numbered v*s.., and its own k - 2s fresh vertices,
    numbered after all vertex blocks in the base graph's edge order."""
    extra = k - 2 * s
    fresh = g.n * s
    out = []
    for i, (u, v) in enumerate(g.edges):
        block = [u * s + j for j in range(s)] + [v * s + j for j in range(s)]
        out.append(tuple(sorted(block + [fresh + i * extra + j for j in range(extra)])))
    return out
