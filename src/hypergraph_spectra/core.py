"""Containers for simple graphs and k-uniform hypergraphs.

Vertices are dense 0-based indices 0..n-1. Edges are stored sorted, both
internally (each edge ascending) and as a whole (lexicographic), so two
structurally identical objects compare equal. Vertices with no incident
edge are legal; an empty vertex set is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

__all__ = [
    "SimpleGraph",
    "Hypergraph",
    "Bipartition",
    "degree",
    "is_connected",
    "remove_edge",
]


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        seen: set[tuple[int, int]] = set()
        canon = []
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"edge {e!r} is not a pair")
            u, v = e
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {e!r} out of range for n={self.n}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            canon.append((u, v))
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency_lists(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edges


@dataclass(frozen=True)
class Hypergraph:
    """k-uniform hypergraph on vertices 0..n-1; every edge is a k-set."""

    k: int
    n: int
    edges: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("edge size k must be at least 2")
        if self.n < 1:
            raise ValueError("hypergraph needs at least one vertex")
        seen: set[tuple[int, ...]] = set()
        canon = []
        for e in self.edges:
            se = tuple(sorted(e))
            if len(se) != self.k or len(set(se)) != self.k:
                raise ValueError(f"edge {e!r} is not a set of {self.k} distinct vertices")
            if se[0] < 0 or se[-1] >= self.n:
                raise ValueError(f"edge {e!r} out of range for n={self.n}")
            if se in seen:
                raise ValueError(f"duplicate edge {se}")
            seen.add(se)
            canon.append(se)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class Bipartition:
    """A split of 0..n-1 into two disjoint vertex classes."""

    part_one: frozenset[int]
    part_two: frozenset[int]

    def __post_init__(self) -> None:
        p1 = frozenset(self.part_one)
        p2 = frozenset(self.part_two)
        if p1 & p2:
            raise ValueError("parts must be disjoint")
        object.__setattr__(self, "part_one", p1)
        object.__setattr__(self, "part_two", p2)


GraphLike = Union[SimpleGraph, Hypergraph]


def degree(h: GraphLike, v: int) -> int:
    """Number of edges incident to vertex v."""
    if not 0 <= v < h.n:
        raise IndexError(f"vertex {v} out of range for n={h.n}")
    return sum(1 for e in h.edges if v in e)


def is_connected(h: GraphLike) -> bool:
    """True when every vertex is reachable from vertex 0 through edges.

    A single vertex with no edges counts as connected; extra isolated
    vertices do not.
    """
    if h.n == 1:
        return True
    adj: list[list[int]] = [[] for _ in range(h.n)]
    for e in h.edges:
        # A star within each edge carries the same reachability as the
        # full clique on it.
        hub = e[0]
        for w in e[1:]:
            adj[hub].append(w)
            adj[w].append(hub)
    seen = bytearray(h.n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = 1
                count += 1
                stack.append(w)
    return count == h.n


# Smallest relative bracket width accepted: about 45 units in the last
# place of a double. Narrower targets sit in the rounding noise of the
# Collatz-Wielandt ratios, so an iteration can spin to max_iter on them.
_MIN_TOL = 1e-14


def check_solver_controls(tol: float, max_iter: int = 1) -> None:
    """Reject an iteration's controls unless tol is in [1e-14, 1) and
    max_iter is at least 1. A NaN or infinite tol would otherwise make
    every stopping test fail or pass at once, and a tol below what doubles
    resolve makes it fail until the iteration cap."""
    if not _MIN_TOL <= tol < 1.0:  # also false for NaN
        raise ValueError(f"tol must be in [{_MIN_TOL:g}, 1), got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")


def remove_edge(h: GraphLike, index: int) -> GraphLike:
    """Copy of h with the edge at the given position deleted.

    The vertex set is kept as is, so the result spans the same vertices.
    """
    if not 0 <= index < len(h.edges):
        raise IndexError(f"edge index {index} out of range for m={len(h.edges)}")
    rest = h.edges[:index] + h.edges[index + 1 :]
    if isinstance(h, Hypergraph):
        return Hypergraph(h.k, h.n, rest)
    return SimpleGraph(h.n, rest)
