"""Plain-text formats for graphs and hypergraphs.

Graph files::

    graph <n> <m>
    <u> <v>          (m lines, 0-based endpoints)

Hypergraph files::

    hypergraph <k> <n> <m>
    <v1> ... <vk>    (m lines of k distinct 0-based indices)

Anything after a ``#`` is a comment; blank lines are skipped. A header
may declare at most MAX_VERTICES vertices, so a hostile header is refused
before anything is sized by it. Serialization is canonical: every edge
ascending, edges in lexicographic order, ``\\n`` line endings.
"""

from __future__ import annotations

from .core import Hypergraph, SimpleGraph

__all__ = [
    "MAX_VERTICES",
    "ParseError",
    "parse_graph",
    "serialize_graph",
    "parse_hypergraph",
    "serialize_hypergraph",
]


# Far above any input the library handles in reasonable time, far below
# what would exhaust memory in the n-sized buffers and bitmasks built later.
MAX_VERTICES = 1_000_000


class ParseError(ValueError):
    """Malformed graph or hypergraph text; message carries the line number."""


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


def _parse_body(text: str, magic: str, header_arity: int):
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
    n = header[-2]  # both headers end in "<n> <m>"
    if n > MAX_VERTICES:
        raise ParseError(f"line {lineno}: {n} vertices exceed the limit of {MAX_VERTICES}")
    return header, list(lines)


def _check_edge_line(values: list[int], arity: int, n: int, lineno: int) -> tuple[int, ...]:
    if len(values) != arity:
        raise ParseError(f"line {lineno}: expected {arity} vertices, got {len(values)}")
    for v in values:
        if not 0 <= v < n:
            raise ParseError(f"line {lineno}: vertex {v} out of range for n={n}")
    edge = tuple(sorted(values))
    if len(set(edge)) != arity:
        raise ParseError(f"line {lineno}: repeated vertex in edge")
    return edge


def parse_graph(text: str) -> SimpleGraph:
    """Read a graph file; malformed input raises ParseError with a line number."""
    (n, m), body = _parse_body(text, "graph", 2)
    if n < 1 or m < 0:
        raise ParseError("line 1: header values out of range")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, ...]] = set()
    for lineno, line in body:
        if len(edges) == m:
            raise ParseError(f"line {lineno}: more than {m} edge lines")
        edge = _check_edge_line(_ints(line.split(), lineno), 2, n, lineno)
        if edge in seen:
            raise ParseError(f"line {lineno}: duplicate edge {edge}")
        seen.add(edge)
        edges.append(edge)  # type: ignore[arg-type]
    if len(edges) != m:
        raise ParseError(f"expected {m} edge lines, got {len(edges)}")
    return SimpleGraph(n, tuple(edges))


def serialize_graph(g: SimpleGraph) -> str:
    lines = [f"graph {g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str) -> Hypergraph:
    """Read a hypergraph file; malformed input raises ParseError with a line number."""
    (k, n, m), body = _parse_body(text, "hypergraph", 3)
    if k < 2 or n < 1 or m < 0:
        raise ParseError("line 1: header values out of range")
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for lineno, line in body:
        if len(edges) == m:
            raise ParseError(f"line {lineno}: more than {m} edge lines")
        edge = _check_edge_line(_ints(line.split(), lineno), k, n, lineno)
        if edge in seen:
            raise ParseError(f"line {lineno}: duplicate edge {edge}")
        seen.add(edge)
        edges.append(edge)
    if len(edges) != m:
        raise ParseError(f"expected {m} edge lines, got {len(edges)}")
    return Hypergraph(k, n, tuple(edges))


def serialize_hypergraph(h: Hypergraph) -> str:
    lines = [f"hypergraph {h.k} {h.n} {h.m}"]
    lines.extend(" ".join(str(v) for v in e) for e in h.edges)
    return "\n".join(lines) + "\n"
