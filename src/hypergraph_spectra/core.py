"""Containers for k-uniform hypergraphs; a simple graph is the 2-uniform one.

Vertices are dense 0-based indices 0..n-1. Edges are stored sorted, both
internally (each edge ascending) and as a whole (lexicographic), so two
structurally identical objects compare equal. Vertices with no incident
edge are legal; an empty vertex set is not.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "SimpleGraph",
    "Hypergraph",
    "Bipartition",
    "is_connected",
]


# Tuple input with at least this many edges is checked as one integer array.
# SimpleGraph from shuffled tuples on a 2-vCPU x86_64 host, loop against
# array: 17 against 52 us at 8 edges, 57 against 60 at 32, 118 against 73 at 64.
_BULK_EDGES = 64


def _increasing(cols: np.ndarray) -> bool:
    """Whether the rows held as (k, m) slot columns are in strictly
    increasing lexicographic order: each pair's first nonzero step is
    positive."""
    step = cols[:, 1:] - cols[:, :-1]
    if not step.size:
        return True  # at most one row; this also spares an edgeless header's k entries
    lead = np.where(step != 0, np.arange(len(step))[:, None], len(step) - 1).min(axis=0)
    return bool((step.ravel()[lead * step.shape[1] + np.arange(step.shape[1])] > 0).all())


def canonical_edges(edges: np.ndarray, n: int) -> tuple[np.ndarray | None, int | None]:
    """Canonical form of an (m, k) integer array of edges, or its first fault.

    Returns (canon, None) when every row is a set of k distinct vertices of
    0..n-1 and no two rows are the same set; canon holds the rows sorted
    ascending, in lexicographic order, as a new intp array: the (m, k)
    transpose of C-contiguous (k, m) slot columns. Otherwise returns
    (None, i) with i the first row, in input order, that is out of range,
    repeats a vertex, or is the same set as an earlier row.

    Every check runs on the slot columns, where numpy reduces over the
    short leading axis many times faster than over the short trailing axis
    of the rows. Rows that already ascend, as in canonical files, are not
    sorted again.
    """
    cols = edges.T.copy()
    bad = ((cols < 0) | (cols >= n)).any(axis=0)
    if not (cols[1:] > cols[:-1]).all():
        cols.sort(axis=0)
        bad |= (cols[1:] == cols[:-1]).any(axis=0)
    # Out-of-range rows are already bad, so wrapping them in the cast is harmless.
    cols = cols.astype(np.intp, copy=False)
    first = int(bad.argmax()) if bad.any() else cols.shape[1]
    canon = cols[:, :first]
    if not _increasing(canon):
        # lexsort is stable, so each set's first occurrence leads its run.
        order = np.lexsort(canon[::-1])
        canon = canon.take(order, axis=1)
        repeats = order[1:][(canon[:, 1:] == canon[:, :-1]).all(axis=0)]
        if repeats.size:
            first = min(first, int(repeats.min()))
    if first < cols.shape[1]:
        return None, first
    return canon.T, None


@dataclass(frozen=True)
class Hypergraph:
    """k-uniform hypergraph on vertices 0..n-1, where n is at most the
    largest intp; every edge is a k-set.

    edges may also be an (m, k) integer array, which numpy checks and puts
    in canonical form; `edges` is then the same tuple of tuples as for the
    rows given as tuples, built on first access, so a numeric path that
    reads only edge_array never builds it. So is a tuple or list of at
    least _BULK_EDGES integer rows; a per-edge loop checks other input.
    edge_array holds the canonical edges as a read-only (m, k) intp array,
    the transpose of C-contiguous (k, m) slot columns.
    """

    k: int
    n: int
    edges: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        try:
            # As for vertices: refuse floats and strings, store numpy integers as ints.
            object.__setattr__(self, "k", operator.index(self.k))
            object.__setattr__(self, "n", operator.index(self.n))
        except TypeError:
            raise ValueError(f"k and n must be integers, got k={self.k!r}, n={self.n!r}") from None
        if self.k < 2:
            raise ValueError("edge size k must be at least 2")
        if self.n < 1:
            raise ValueError("hypergraph needs at least one vertex")
        if self.n > np.iinfo(np.intp).max:  # edge_array could not hold the vertices
            raise ValueError(f"n must be at most {np.iinfo(np.intp).max}, got {self.n}")
        rows = self.edges
        if isinstance(rows, (tuple, list)) and len(rows) >= _BULK_EDGES:
            try:
                rows = np.array(rows)
            except ValueError:
                pass  # ragged rows
        if isinstance(rows, np.ndarray) and rows.shape[1:] == (self.k,) and rows.dtype.kind in "iu":
            canon, row = canonical_edges(rows, self.n)
            if canon is not None:
                self._keep(canon)
                return
            if rows is self.edges:
                raise ValueError(self._refusal(tuple(rows[row].tolist())))
        elif isinstance(self.edges, np.ndarray):
            raise ValueError(
                f"edge array must be (m, {self.k}) integers, got {rows.shape} {rows.dtype}"
            )
        # Tuple input the array refuses (ragged rows, ints past int64 as
        # numpy floats or objects, any refused edge) goes on to the loop,
        # which names the edge.
        seen: set[tuple[int, ...]] = set()
        canon = []
        for e in self.edges:
            try:
                # operator.index refuses floats and strings, and turns numpy
                # integers into ints as the array path does.
                se = tuple(sorted(map(operator.index, e)))
            except TypeError:
                raise ValueError(self._refusal(e)) from None
            distinct = len(se) == self.k == len(set(se))
            if not (distinct and 0 <= se[0] and se[-1] < self.n) or se in seen:
                raise ValueError(self._refusal(e))
            seen.add(se)
            canon.append(se)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    def _keep(self, canon: np.ndarray) -> None:
        """Store checked canonical rows; edges is built from them when read."""
        canon.flags.writeable = False
        self.__dict__["edge_array"] = canon  # where cached_property keeps it
        del self.__dict__["edges"]  # until __getattr__ builds it

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

    def __getattr__(self, name: str):
        # Reached only for what neither the instance nor the class holds:
        # the edges of an array-built hypergraph, until first read.
        if name != "edges" or "edge_array" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        # Zipped columns build the tuples about twice as fast as rows; with
        # no rows there are no columns to zip, however large k is.
        arr = self.edge_array
        edges = self.__dict__["edges"] = tuple(zip(*arr.T.tolist())) if len(arr) else ()
        return edges

    @property
    def m(self) -> int:
        arr = self.__dict__.get("edge_array")
        return len(self.edges if arr is None else arr)

    @cached_property
    def edge_array(self) -> np.ndarray:
        arr = np.asfortranarray(np.array(self.edges, dtype=np.intp).reshape(self.m, self.k))
        arr.flags.writeable = False
        return arr

    def __getstate__(self) -> dict:
        # The edges as tuples: a pickled array comes back writeable, so the
        # copy rebuilds its own.
        return {"k": self.k, "n": self.n, "edges": self.edges}


# The dataclass keeps the default () as a class attribute, which would
# answer for the edges an array-built instance has not built yet.
del Hypergraph.edges


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


def check_graph(h: Hypergraph) -> None:
    """Refuse h unless it is a graph: a 2-uniform hypergraph."""
    if h.k != 2:
        raise ValueError(f"need a graph (k = 2), got k = {h.k}")


def is_connected(h: Hypergraph) -> bool:
    """True when every vertex is reachable from vertex 0 through edges.

    A single vertex with no edges counts as connected; extra isolated
    vertices do not. Decided on the (k, m) slot columns h.edge_array.T by
    hook-and-compress labelling: each round hooks every label an edge sees
    to the smallest of them, then points every vertex at its label's root.
    Labels only decrease, and each round at least halves the number of
    labels in every component that has more than one, so there are
    O(log n) rounds.
    """
    slots = h.edge_array.T
    label = np.arange(h.n)
    while True:
        seen = label[slots]
        low = seen.min(axis=0)
        if (seen == low).all():
            return bool((label == 0).all())
        # A flat index and values of its length: given the (k, m) index and
        # (m,) values, np.minimum.at has returned wrong labels (numpy 2.4).
        np.minimum.at(label, seen.ravel(), np.tile(low, len(slots)))
        while True:
            up = label[label]
            if (up == label).all():
                break
            label = up
        if not label.any():
            return True  # every root is vertex 0: no need to look at the edges again


# Smallest relative bracket width accepted: about 45 units in the last
# place of a double. Narrower targets sit in the rounding noise of the
# Collatz-Wielandt ratios, so an iteration can spin to max_iter on them.
_MIN_TOL = 1e-14


def check_solver_controls(tol: float, max_iter: int) -> None:
    """Reject an iteration's controls unless tol is a real number in
    [1e-14, 1) and max_iter an integer of at least 1. A NaN or infinite tol
    would otherwise make every stopping test fail or pass at once, and a tol
    below what doubles resolve makes it fail until the iteration cap."""
    if not (isinstance(tol, numbers.Real) and _MIN_TOL <= tol < 1.0):  # also false for NaN
        raise ValueError(f"tol must be in [{_MIN_TOL:g}, 1), got {tol!r}")
    try:
        valid = operator.index(max_iter) >= 1
    except TypeError:  # as for k and n: floats, strings and None are refused
        valid = False
    if not valid:
        raise ValueError(f"max_iter must be an integer of at least 1, got {max_iter!r}")
