"""Bipartiteness of graphs and odd-bipartiteness of even-uniform hypergraphs.

A hypergraph with even edge size k is odd-bipartite when its vertices split
into two classes such that every edge meets both in odd cardinality. Since k
is even the two conditions coincide, so the search is a single linear system
over GF(2): one parity row per edge, right-hand side all ones. A graph is
the 2-uniform hypergraph, and an edge {u, v} meets a class oddly exactly
when u and v lie on different sides, so a graph's bipartiteness is the
k = 2 case of the same solve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Bipartition, Hypergraph

__all__ = [
    "ParitySystem",
    "parity_system",
    "gf2_solve",
    "is_bipartite",
    "odd_bipartition",
    "verify_odd_bipartition",
]


@dataclass(frozen=True)
class ParitySystem:
    """Linear system over GF(2). Row i is a bitmask of variables; rhs[i] is
    the parity the selected variables must sum to."""

    n_vars: int
    rows: tuple[int, ...]
    rhs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_vars < 0:
            raise ValueError("variable count must be nonnegative")
        if len(self.rows) != len(self.rhs):
            raise ValueError("rows and rhs differ in length")
        if any(r < 0 or r.bit_length() > self.n_vars for r in self.rows):
            raise ValueError("row mask out of range")
        if any(b not in (0, 1) for b in self.rhs):
            raise ValueError("rhs entries must be 0 or 1")


def parity_system(h: Hypergraph) -> ParitySystem:
    """One row per edge, marking its vertices; all parities required odd."""
    rows = tuple(sum(1 << v for v in e) for e in h.edges)
    return ParitySystem(h.n, rows, (1,) * h.m)


def gf2_solve(system: ParitySystem) -> int | None:
    """One solution as a bitmask, free variables forced to 0; None when
    the system is inconsistent.

    Lazy row echelon: each stored row is keyed by its lowest set bit, its
    pivot column. An incoming row (variables in bits 0..n-1, rhs in bit n)
    is XORed with the stored row of its current lowest bit until that bit
    is new; a row that reduces to the rhs bit alone is a contradiction. One
    back-substitution in decreasing pivot order then sets each pivot to its
    rhs plus the parity of the already-fixed variables in its row.

    The mask is bit-identical to eager Gauss-Jordan elimination's. Every
    row obtained from an incoming one by adding earlier rows, and whose
    lowest bit is not yet a pivot, has that same lowest bit. So both
    methods pick the same pivot columns, and with free variables at 0 the
    solution is unique.
    """
    n = system.n_vars
    pivots: dict[int, int] = {}  # pivot column -> augmented row
    for mask, b in zip(system.rows, system.rhs):
        row = mask | (b << n)
        while row:
            col = (row & -row).bit_length() - 1
            prow = pivots.get(col)
            if prow is None:
                if col == n:
                    return None
                pivots[col] = row
                break
            row ^= prow
    x = 0
    rhs_bit = 1 << n
    for col in sorted(pivots, reverse=True):
        # Bits above col in the row are pivots fixed already or free at 0.
        if (pivots[col] & (x | rhs_bit)).bit_count() & 1:
            x |= 1 << col
    return x


def is_bipartite(g: Hypergraph) -> Bipartition | None:
    """A proper 2-coloring of the graph g as a Bipartition, or None if an
    odd cycle exists: odd_bipartition at k = 2, with its checked certificate."""
    if g.k != 2:
        raise ValueError(f"bipartiteness is the k = 2 case, got k = {g.k}")
    return odd_bipartition(g)


def odd_bipartition(h: Hypergraph) -> Bipartition | None:
    """A bipartition meeting every edge of h oddly on both sides, or None.

    Only defined for even k. The certificate is re-verified before being
    returned.
    """
    if h.k % 2:
        raise ValueError("odd-bipartiteness needs even edge size")
    x = gf2_solve(parity_system(h))
    if x is None:
        return None
    part_one = frozenset(v for v in range(h.n) if (x >> v) & 1)
    b = Bipartition(part_one, frozenset(range(h.n)) - part_one)
    if not verify_odd_bipartition(h, b):
        raise RuntimeError("solver produced an invalid certificate")
    return b


def verify_odd_bipartition(h: Hypergraph, b: Bipartition) -> bool:
    """Check that b splits V(h) and meets every edge oddly on both sides."""
    if b.part_one | b.part_two != frozenset(range(h.n)) or (b.part_one & b.part_two):
        raise ValueError("not a partition of the vertex set")
    for e in h.edges:
        ones = sum(1 for v in e if v in b.part_one)
        if ones % 2 == 0 or (len(e) - ones) % 2 == 0:
            return False
    return True
