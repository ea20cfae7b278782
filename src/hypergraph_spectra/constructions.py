"""Blow-up constructions and the named base graphs used with them.

The central operation turns a simple graph G into a k-uniform hypergraph by
replacing every vertex with an s-set and every edge uv with the k-set made
of the two endpoint sets plus k-2s fresh vertices. With s = k/2 no fresh
vertices are needed and the edges are unions of two "half edges". The
blown-up edges are built already ascending and in order, so the blow-up
sorts none; a base of many edges is blown up as one integer array.

The blow-ups, the loose paths and cycles, and subdivide refuse, before
building anything, a result with more vertices than a file may declare
(MAX_VERTICES).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _BULK_EDGES, Hypergraph, SimpleGraph, check_graph, is_connected
from .fileio import MAX_VERTICES

__all__ = [
    "BlowupMap",
    "generalized_power",
    "s_path",
    "s_cycle",
    "cycle_graph",
    "cycle_plus_pendant",
    "t_graph",
    "subdivide",
    "internal_path_edges",
]


def _check_size(n: int) -> None:
    if n > MAX_VERTICES:
        raise ValueError(f"{n} vertices exceed the limit of {MAX_VERTICES}")


@dataclass(frozen=True)
class BlowupMap:
    """Where each base vertex and base edge landed in a blown-up hypergraph.

    vertex_blocks[v] is the s-set replacing base vertex v; edge_blocks[i] is
    the set of k-2s fresh vertices attached to base edge i (in the base
    graph's sorted edge order), empty when s = k/2. Blocks are consecutive
    ranges: all vertex blocks first, then edge blocks.
    """

    k: int
    s: int
    vertex_blocks: tuple[tuple[int, ...], ...]
    edge_blocks: tuple[tuple[int, ...], ...]

    @property
    def total_vertices(self) -> int:
        return self.s * len(self.vertex_blocks) + (self.k - 2 * self.s) * len(self.edge_blocks)

    @property
    def half_edge_case(self) -> bool:
        return 2 * self.s == self.k


def generalized_power(g: SimpleGraph, k: int, s: int) -> tuple[Hypergraph, BlowupMap]:
    """Blow g up into a k-uniform hypergraph with vertex multiplicity s.

    Every base vertex becomes an s-set, every base edge uv the k-set
    (u-set | v-set | k-2s fresh vertices). Requires k >= 3 and
    1 <= s <= k/2. Isolated base vertices keep their blocks, so the result
    has s*n + (k-2s)*m vertices.
    """
    check_graph(g)
    if k < 3:
        raise ValueError("edge size k must be at least 3")
    if s < 1 or 2 * s > k:
        raise ValueError(f"s={s} out of range: need 1 <= s <= k/2 for k={k}")
    _check_size(s * g.n + (k - 2 * s) * g.m)
    base = g.n * s
    extra = k - 2 * s
    top = base + g.m * extra
    # Slot j of the blocks is a strided range; with no fresh slots, m empty blocks.
    vertex_blocks = tuple(zip(*[range(j, base, s) for j in range(s)]))
    edge_blocks = tuple(zip(*[range(j, top, extra) for j in range(base, base + extra)])) or ((),) * g.m
    # u < v and fresh vertices come last: each k-set ascends, in the base graph's order.
    if g.m >= _BULK_EDGES:
        halves = np.arange(base).reshape(g.n, s)[g.edge_array].reshape(g.m, 2 * s)
        hyperedges = np.hstack([halves, np.arange(base, top).reshape(g.m, extra)])
    else:
        hyperedges = tuple(
            vertex_blocks[u] + vertex_blocks[v] + edge_blocks[i] for i, (u, v) in enumerate(g.edges)
        )
    h = Hypergraph(k, top, hyperedges)
    return h, BlowupMap(k, s, vertex_blocks, edge_blocks)


def s_path(k: int, s: int, d: int) -> Hypergraph:
    """Loose path with d edges: consecutive k-sets overlapping in s vertices.

    Edge j covers positions j*(k-s) .. j*(k-s)+k-1, so the path has
    s + d*(k-s) vertices. Requires 1 <= s <= k-1 and d >= 1.
    """
    if k < 2:
        raise ValueError("edge size k must be at least 2")
    if not 1 <= s <= k - 1:
        raise ValueError(f"s={s} out of range: need 1 <= s <= k-1")
    if d < 1:
        raise ValueError("need at least one edge")
    step = k - s
    n = s + d * step
    _check_size(n)
    edges = tuple(tuple(range(j * step, j * step + k)) for j in range(d))
    return Hypergraph(k, n, edges)


def s_cycle(k: int, s: int, d: int) -> Hypergraph:
    """Cyclic version of s_path: d edges on d*(k-s) vertices, wrapping around.

    Requires d*(k-s) > k; at d*(k-s) = k every edge would cover the whole
    vertex set and the edges would coincide.
    """
    if k < 2:
        raise ValueError("edge size k must be at least 2")
    if not 1 <= s <= k - 1:
        raise ValueError(f"s={s} out of range: need 1 <= s <= k-1")
    step = k - s
    n = d * step
    if n < k:
        raise ValueError(f"cycle on {n} vertices cannot carry {k}-vertex edges")
    if n == k:
        raise ValueError("cycle too short: all edges would coincide")
    _check_size(n)
    edges = tuple(
        tuple(sorted((j * step + t) % n for t in range(k))) for j in range(d)
    )
    return Hypergraph(k, n, edges)


def cycle_graph(n: int) -> SimpleGraph:
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    edges = tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),)
    return SimpleGraph(n, edges)


def cycle_plus_pendant(n: int) -> SimpleGraph:
    """Cycle on vertices 1..n-1 with the pendant vertex 0 attached at 1.

    Vertex 1 is the unique degree-3 vertex and the cycle runs
    1, 2, ..., n-1 back to 1. Requires n >= 4.
    """
    if n < 4:
        raise ValueError("need n >= 4: a cycle plus one pendant vertex")
    edges = [(0, 1)]
    edges.extend((i, i + 1) for i in range(1, n - 1))
    edges.append((1, n - 1))
    return SimpleGraph(n, tuple(edges))


def t_graph(n: int) -> SimpleGraph:
    """Path on n-4 vertices with two extra pendant vertices at each end.

    The smallest case n = 6 is the double star with degree sequence
    (3, 3, 1, 1, 1, 1). Requires n >= 6.
    """
    if n < 6:
        raise ValueError("need n >= 6")
    c = n - 4
    edges = [(i, i + 1) for i in range(c - 1)]
    edges += [(0, c), (0, c + 1), (c - 1, c + 2), (c - 1, c + 3)]
    return SimpleGraph(n, tuple(edges))


def subdivide(g: SimpleGraph, u: int, w: int) -> SimpleGraph:
    """Replace the edge uw by a path u - x - w through a fresh vertex x = g.n."""
    check_graph(g)
    a, b = (u, w) if u < w else (w, u)
    if (a, b) not in g.edges:
        raise ValueError(f"no edge ({u}, {w}) to subdivide")
    _check_size(g.n + 1)
    x = g.n
    edges = tuple(e for e in g.edges if e != (a, b)) + ((a, x), (b, x))
    return SimpleGraph(g.n + 1, edges)


def internal_path_edges(g: SimpleGraph) -> frozenset[tuple[int, int]]:
    """Edges lying on an internal path of the connected graph g.

    An internal path runs between vertices of degree >= 3 (possibly the
    same vertex) through interior vertices of degree exactly 2. A bare
    cycle has no such vertex and yields the empty set; subdivision
    statements treat C_n separately.
    """
    check_graph(g)
    if not is_connected(g):
        raise ValueError("graph must be connected")
    adj = g.adjacency_lists()
    deg = [len(a) for a in adj]

    def terminus(prev: int, cur: int) -> int | None:
        steps = 0
        while deg[cur] == 2:
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            prev, cur = cur, nxt
            steps += 1
            if steps > g.n:
                return None  # walked around a cycle of degree-2 vertices
        return cur

    out = set()
    for u, v in g.edges:
        a = u if deg[u] != 2 else terminus(v, u)
        b = v if deg[v] != 2 else terminus(u, v)
        if a is None or b is None:
            continue
        if deg[a] >= 3 and deg[b] >= 3:
            out.add((u, v))
    return frozenset(out)
