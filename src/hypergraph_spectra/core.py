"""Containers for k-uniform hypergraphs; a simple graph is the 2-uniform one.

Vertices are dense 0-based indices 0..n-1. Edges are stored sorted, both
internally (each edge ascending) and as a whole (lexicographic), so two
structurally identical objects compare equal. Vertices with no incident
edge are legal; an empty vertex set is not.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "SimpleGraph",
    "Hypergraph",
    "Bipartition",
    "degree",
    "is_connected",
    "remove_edge",
]


class _RefusedEdge(ValueError):
    """ValueError for the edge at index `row` of the edges given."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


def canonical_edges(edges: np.ndarray, n: int) -> tuple[np.ndarray | None, int | None]:
    """Canonical form of an (m, k) integer array of edges, or its first fault.

    Returns (canon, None) when every row is a set of k distinct vertices of
    0..n-1 and no two rows are the same set; canon holds the rows sorted
    ascending, in lexicographic order, as a new intp array. Otherwise
    returns (None, i) with i the first row, in input order, that is out of
    range, repeats a vertex, or is the same set as an earlier row.
    """
    bad = ((edges < 0) | (edges >= n)).any(axis=1)
    # Out-of-range rows are already bad, so wrapping them in the cast is harmless.
    rows = np.sort(edges, axis=1).astype(np.intp, copy=False)
    bad |= (rows[:, 1:] == rows[:, :-1]).any(axis=1)
    first = int(bad.argmax()) if bad.any() else len(rows)
    canon = rows[:first]
    step = canon[1:] - canon[:-1]
    if not np.all(step[np.arange(len(step)), (step != 0).argmax(axis=1)] > 0):
        # Not already in strictly increasing order. lexsort is stable, so
        # each set's first occurrence leads its run.
        order = np.lexsort(canon.T[::-1])
        canon = canon[order]
        repeats = order[1:][(canon[1:] == canon[:-1]).all(axis=1)]
        if repeats.size:
            first = min(first, int(repeats.min()))
    if first < len(rows):
        return None, first
    return canon, None


@dataclass(frozen=True)
class Hypergraph:
    """k-uniform hypergraph on vertices 0..n-1; every edge is a k-set.

    edges may also be an (m, k) integer array, which numpy checks and puts
    in canonical form; `edges` is then the same tuple of tuples as for the
    rows given as tuples. edge_array holds the canonical edges as a
    read-only (m, k) intp array.
    """

    k: int
    n: int
    edges: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("edge size k must be at least 2")
        if self.n < 1:
            raise ValueError("hypergraph needs at least one vertex")
        if isinstance(self.edges, np.ndarray):
            rows = self.edges
            if rows.ndim != 2 or rows.shape[1] != self.k or rows.dtype.kind not in "iu":
                raise ValueError(
                    f"edge array must be (m, {self.k}) integers, got {rows.shape} {rows.dtype}"
                )
            canon, row = canonical_edges(rows, self.n)
            if canon is None:
                raise _RefusedEdge(self._refusal(tuple(rows[row].tolist())), row)
            canon.flags.writeable = False
            self.__dict__["edge_array"] = canon  # where cached_property keeps it
            # Zipped columns build the tuples about twice as fast as rows.
            object.__setattr__(self, "edges", tuple(zip(*canon.T.tolist())) if len(canon) else ())
            return
        seen: set[tuple[int, ...]] = set()
        canon = []
        for row, e in enumerate(self.edges):
            try:
                # operator.index refuses floats and strings, and turns numpy
                # integers into ints as the array path does.
                se = tuple(sorted(map(operator.index, e)))
            except TypeError:
                raise _RefusedEdge(self._refusal(e), row) from None
            distinct = len(se) == self.k == len(set(se))
            if not (distinct and 0 <= se[0] and se[-1] < self.n) or se in seen:
                raise _RefusedEdge(self._refusal(e), row)
            seen.add(se)
            canon.append(se)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    def _refusal(self, e: tuple) -> str:
        """Why e is refused, given that it is: not a k-set of distinct
        vertices, out of range, or else the repeat of an earlier edge."""
        try:
            se = tuple(sorted(map(operator.index, e)))
        except TypeError:
            return f"edge {e!r} is not a set of integer vertices"
        if len(se) != self.k or len(set(se)) != self.k:
            return f"edge {e!r} is not a set of {self.k} distinct vertices"
        if se[0] < 0 or se[-1] >= self.n:
            return f"edge {e!r} out of range for n={self.n}"
        return f"duplicate edge {se}"

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_array(self) -> np.ndarray:
        arr = np.array(self.edges, dtype=np.intp).reshape(self.m, self.k)
        arr.flags.writeable = False
        return arr

    def __getstate__(self) -> dict:
        # A pickled array comes back writeable; the copy rebuilds its own.
        state = self.__dict__.copy()
        state.pop("edge_array", None)
        return state


@dataclass(frozen=True)
class SimpleGraph(Hypergraph):
    """Undirected simple graph on vertices 0..n-1: the 2-uniform
    Hypergraph, so the tensors of order k = 2 take it as their hypergraph."""

    k: int = field(default=2, init=False)

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


def degree(h: Hypergraph, v: int) -> int:
    """Number of edges incident to vertex v."""
    if not 0 <= v < h.n:
        raise IndexError(f"vertex {v} out of range for n={h.n}")
    return sum(1 for e in h.edges if v in e)


def is_connected(h: Hypergraph) -> bool:
    """True when every vertex is reachable from vertex 0 through edges.

    A single vertex with no edges counts as connected; extra isolated
    vertices do not. Decided on h.edge_array by hook-and-compress
    labelling: each round hooks every label an edge sees to the smallest of
    them, then points every vertex at its label's root. Labels only
    decrease, and each round at least halves the number of labels in every
    component that has more than one, so there are O(log n) rounds.
    """
    edges = h.edge_array
    label = np.arange(h.n)
    while True:
        seen = label[edges]
        low = seen.min(axis=1)
        if np.all(seen == low[:, None]):
            return bool(np.all(label == 0))
        np.minimum.at(label, seen, low[:, None])
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


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


def remove_edge(h: Hypergraph, index: int) -> Hypergraph:
    """Copy of h with the edge at the given position deleted.

    The vertex set is kept as is, so the result spans the same vertices.
    """
    if not 0 <= index < len(h.edges):
        raise IndexError(f"edge index {index} out of range for m={len(h.edges)}")
    rest = h.edges[:index] + h.edges[index + 1 :]
    if isinstance(h, SimpleGraph):
        return SimpleGraph(h.n, rest)
    return Hypergraph(h.k, h.n, rest)
