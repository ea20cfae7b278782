"""Exhaustive enumeration of small connected graphs up to isomorphism.

A graph on n vertices is packed into an integer code with one bit per
vertex pair. The canonical representative of an isomorphism class is the
smallest code over all vertex permutations. The classes on n vertices are
built from those on n - 1 by one-vertex augmentation: every connected
graph has a vertex that is not a cut vertex, so joining a new vertex to
every nonempty neighbour set of every smaller class reaches every class.
Each child's canonical code is a minimum over a table of permuted codes,
and a set drops the repeats.

A level can be limited to the classes with at most a given number of
edges: a parent then needs at most one edge fewer, and a neighbour set at
most the edges the parent leaves. Orders 1..8 are supported: the full
n = 8 level (11117 classes) takes seconds where n <= 7 takes a fraction of
one, and the 112 classes of n = 8 with at most 8 edges a tenth of one.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache
from typing import Iterator

import numpy as np

from .core import SimpleGraph
from .oddbip import is_bipartite

__all__ = [
    "graph_code",
    "graph_from_code",
    "canonical_code",
    "enumerate_connected_graphs",
    "enumerate_connected_nonbipartite",
]

_MAX_N = 8
# Words of scratch an augmentation step reduces at once: 2^18 int32 words
# (1 MB) stay in cache, where one (sets, permutations) array would not.
_BLOCK_WORDS = 1 << 18


def _pair_bit(n: int, u: int, v: int) -> int:
    """The bit of the pair u < v: pairs are numbered in lexicographic order."""
    return u * (2 * n - u - 1) // 2 + v - u - 1


def _code_edges(n: int, code: int) -> tuple[tuple[int, int], ...]:
    """The pairs whose bits are set in code, in bit order."""
    edges = []
    u, start, end = 0, 0, n - 1  # the pairs (u, w > u) hold bits start..end-1
    while code:
        low = code & -code
        b = low.bit_length() - 1
        code ^= low
        while b >= end:
            u += 1
            start, end = end, end + n - u - 1
        edges.append((u, u + 1 + b - start))
    return tuple(edges)


def graph_code(g: SimpleGraph) -> int:
    """Pack the edge set of g into an integer, one bit per vertex pair."""
    return sum(1 << _pair_bit(g.n, u, v) for u, v in g.edges)


def graph_from_code(n: int, code: int) -> SimpleGraph:
    code = operator.index(code)
    if code < 0 or code.bit_length() > n * (n - 1) // 2:
        raise ValueError("code out of range")
    return SimpleGraph(n, _code_edges(n, code))


@lru_cache(maxsize=4)
def _perm_bit_tables(n: int) -> np.ndarray:
    """bits[b, p]: bit b of a code moved by the p-th permutation of the
    vertices, as a mask. Codes fit int32 for n <= 8 (28 bits), which halves
    the memory traffic of int64."""
    pairs = list(itertools.combinations(range(n), 2))
    index = np.zeros((n, n), dtype=np.int32)
    for b, (u, v) in enumerate(pairs):
        index[u, v] = index[v, u] = b
    # perms[:, p]: the p-th permutation in itertools' lexicographic order,
    # built a size at a time: each first entry f, then every permutation of
    # the rest with the entries from f on moved up by one.
    perms = np.zeros((0, 1), dtype=np.intp)
    for size in range(1, n + 1):
        first = np.repeat(np.arange(size), perms.shape[1])
        rest = np.tile(perms, size)
        rest += rest >= first
        perms = np.vstack([first, rest])
    return np.int32(1) << index[perms[[u for u, _ in pairs]], perms[[v for _, v in pairs]]]


def canonical_code(n: int, code: int) -> int:
    """Smallest code among all relabelings: a complete isomorphism invariant
    for graphs small enough to enumerate permutations (n <= 8)."""
    _check_range(n, 1)
    bits = _perm_bit_tables(n)
    if not 0 <= code < (1 << len(bits)):
        raise ValueError("code out of range")
    # mapped[p]: the code's edges moved by the p-th permutation.
    mapped = np.bitwise_or.reduce(bits[[b for b in range(len(bits)) if code >> b & 1]])
    return int(mapped.min())


@lru_cache(maxsize=None)
def _augmented_class_codes(n: int, budget: int | None) -> tuple[int, ...]:
    """Canonical codes of the connected classes on n vertices with at most
    budget edges (all of them when budget is None), ascending: each class
    on n - 1 vertices with at most budget - 1 edges, with a new vertex n - 1
    joined to every nonempty neighbour set that keeps within the budget.

    Every class with m <= budget edges is reached: removing a vertex that
    is not a cut vertex leaves a connected parent with m - deg <= budget - 1
    edges, and the removed neighbour set has deg <= budget - m_parent
    members. So the result is the full level filtered by edge count."""
    full = n * (n - 1) // 2
    if budget is not None and budget >= full:
        return _augmented_class_codes(n, None)
    limit = full if budget is None else budget
    if limit < n - 1:
        return ()
    if n == 1:
        return (0,)
    parents = _augmented_class_codes(n - 1, limit - 1)
    # A connected parent has at least n - 2 edges, which caps the set size.
    most = min(n - 1, limit - (n - 2))
    bits = _perm_bit_tables(n)
    old = [_pair_bit(n, u, v) for u, v in itertools.combinations(range(n - 1), 2)]
    # The neighbour sets of up to `most` members, by size and then value,
    # after the empty set; ends[j]: the rows of the sets of at most j members.
    sets = sorted((s for s in range(1 << (n - 1)) if s.bit_count() <= most), key=int.bit_count)
    ends = list(itertools.accumulate(math.comb(n - 1, j) for j in range(most + 1)))
    # joins[i, p]: the edges from the new vertex to sets[i], moved by the p-th
    # permutation; each row extends the row of its set minus its lowest member.
    joins = np.zeros((len(sets), bits.shape[1]), dtype=np.int32)
    row = {0: 0}
    for i, s in enumerate(sets[1:], 1):
        low = (s & -s).bit_length() - 1
        np.bitwise_or(joins[row[s & (s - 1)]], bits[_pair_bit(n, low, n - 1)], out=joins[i])
        row[s] = i
    block = max(1, _BLOCK_WORDS // bits.shape[1])
    buf = np.empty((block, bits.shape[1]), dtype=np.int32)
    found: set[int] = set()
    for code in parents:
        stop = ends[min(most, limit - code.bit_count())]
        # mapped[p]: the parent's edges moved by the p-th permutation.
        mapped = np.bitwise_or.reduce(bits[[d for b, d in enumerate(old) if code >> b & 1]])
        for start in range(1, stop, block):
            chunk = joins[start : min(start + block, stop)]
            out = np.bitwise_or(chunk, mapped, out=buf[: len(chunk)])
            found.update(out.min(axis=1).tolist())
    return tuple(sorted(found))


@lru_cache(maxsize=None)
def _connected_class_codes(n: int) -> tuple[int, ...]:
    """Canonical codes of the connected classes on n vertices, ascending.
    The levels below n are built, and cached, by _augmented_class_codes.
    Kept beside it as the one entry point for a cold scan of level n: the
    benchmark's tracing times the first call per n through this name, and
    the tests compare its answer with the brute-force scan oracle."""
    return _augmented_class_codes(n, None)


def _check_range(n: int, lo: int) -> None:
    if not lo <= n <= _MAX_N:
        raise ValueError(f"n out of supported range: need {lo} <= n <= {_MAX_N}")


def enumerate_connected_graphs(n: int) -> list[SimpleGraph]:
    """One canonical representative per isomorphism class of connected
    graphs on n vertices, in increasing code order."""
    _check_range(n, 1)
    return [graph_from_code(n, c) for c in _connected_class_codes(n)]


def enumerate_connected_nonbipartite(n: int) -> Iterator[SimpleGraph]:
    """One canonical representative per isomorphism class of connected
    non-bipartite graphs on n vertices, in increasing code order."""
    _check_range(n, 3)
    for code in _connected_class_codes(n):
        g = graph_from_code(n, code)
        if is_bipartite(g) is None:
            yield g
