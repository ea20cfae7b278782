"""Exhaustive enumeration of small connected graphs up to isomorphism.

A graph on n vertices is packed into an integer code with one bit per
vertex pair. The canonical representative of an isomorphism class is the
smallest code over all vertex permutations. The classes on n vertices are
built from those on n - 1 by one-vertex augmentation: every connected
graph has a vertex that is not a cut vertex, so joining a new vertex to
every nonempty neighbour set of every smaller class reaches every class.
Each child's canonical code is a minimum over a table of permuted codes,
and a set drops the repeats.

Orders 1..8 are supported: n = 8 (11117 classes) takes seconds where
n <= 7 takes a fraction of one.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

import numpy as np

from .core import SimpleGraph
from .oddbip import is_bipartite

__all__ = [
    "graph_code",
    "graph_from_code",
    "canonical_code",
    "canonical_form",
    "enumerate_connected_graphs",
    "enumerate_connected_nonbipartite",
]

_MAX_N = 8
# Words of scratch an augmentation step reduces at once: 2^18 int32 words
# (1 MB) stay in cache, where one (sets, permutations) array would not.
_BLOCK_WORDS = 1 << 18


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(itertools.combinations(range(n), 2))


@lru_cache(maxsize=None)
def _pair_index(n: int) -> dict[tuple[int, int], int]:
    return {pair: b for b, pair in enumerate(_pairs(n))}


def graph_code(g: SimpleGraph) -> int:
    """Pack the edge set of g into an integer, one bit per vertex pair."""
    idx = _pair_index(g.n)
    return sum(1 << idx[e] for e in g.edges)


def graph_from_code(n: int, code: int) -> SimpleGraph:
    pairs = _pairs(n)
    if not 0 <= code < (1 << len(pairs)):
        raise ValueError("code out of range")
    edges = tuple(pairs[b] for b in range(len(pairs)) if (code >> b) & 1)
    return SimpleGraph(n, edges)


@lru_cache(maxsize=4)
def _perm_bit_tables(n: int) -> np.ndarray:
    """bits[b, p]: bit b of a code moved by the p-th permutation of the
    vertices, as a mask. Codes fit int32 for n <= 8 (28 bits), which halves
    the memory traffic of int64."""
    pairs = _pairs(n)
    index = np.zeros((n, n), dtype=np.int32)
    for b, (u, v) in enumerate(pairs):
        index[u, v] = index[v, u] = b
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp).T
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


def canonical_form(g: SimpleGraph) -> SimpleGraph:
    """The canonical representative of g's isomorphism class."""
    return graph_from_code(g.n, canonical_code(g.n, graph_code(g)))


@lru_cache(maxsize=None)
def _augmented_class_codes(n: int) -> tuple[int, ...]:
    """Canonical codes of the connected classes on n vertices, ascending:
    each class on n - 1 vertices with a new vertex n - 1 joined to every
    nonempty neighbour set."""
    if n == 1:
        return (0,)
    bits = _perm_bit_tables(n)
    index = _pair_index(n)
    old = [index[pair] for pair in _pairs(n - 1)]
    # joins[s - 1, p]: the edges from the new vertex to the set s, moved by
    # the p-th permutation; each row extends the row of s minus its lowest member.
    joins = np.zeros((1 << (n - 1), bits.shape[1]), dtype=np.int32)
    for s in range(1, len(joins)):
        low = (s & -s).bit_length() - 1
        np.bitwise_or(joins[s & (s - 1)], bits[index[(low, n - 1)]], out=joins[s])
    joins = joins[1:]
    block = max(1, _BLOCK_WORDS // bits.shape[1])
    buf = np.empty((block, bits.shape[1]), dtype=np.int32)
    found: set[int] = set()
    for code in _augmented_class_codes(n - 1):
        # mapped[p]: the parent's edges moved by the p-th permutation.
        mapped = np.bitwise_or.reduce(bits[[d for b, d in enumerate(old) if code >> b & 1]])
        for start in range(0, len(joins), block):
            chunk = joins[start : start + block]
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
    return _augmented_class_codes(n)


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
