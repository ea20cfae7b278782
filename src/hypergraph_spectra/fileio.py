"""Plain-text formats for graphs and hypergraphs.

Graph files::

    graph <n> <m>
    <u> <v>          (m lines, 0-based endpoints)

Hypergraph files::

    hypergraph <k> <n> <m>
    <v1> ... <vk>    (m lines of k distinct 0-based indices)

Lines are split as str.splitlines splits them: at \\n, \\r\\n or \\r, and
also at a vertical tab or form feed. Numbers on a line are separated by
any run of spaces, tabs or other whitespace, and are read as int() reads
them: an optional sign, then digits with single underscores between them.
Anything after a ``#`` is a comment; blank lines are skipped. A header may
declare at most MAX_VERTICES vertices, so a hostile header is refused
before anything is sized by it. A malformed file raises ParseError naming
the first line that breaks a rule, by its number among all lines.
Serialization is canonical: every edge ascending, edges in lexicographic
order, ``\\n`` line endings. It is written in bulk, by numpy from the edge
array in one pass.

Files in the layout serialization writes (the header on line 1, then edge
lines of ASCII digits, spaces and tabs ending in ``\\n`` or ``\\r\\n``) are
read in bulk, by numpy's loadtxt. Any other layout, a file with 20 zeros
in a row, and any file whose edges are refused, is read line by line,
which is several times slower on large files.
"""

from __future__ import annotations

import io

import numpy as np

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


def _lines(text: str, start: int = 1):
    """(line number, tokens) for every line with a token outside its comment,
    the first line numbered start."""
    for lineno, line in enumerate(text.splitlines(), start=start):
        tokens = line.partition("#")[0].split()
        if tokens:
            yield lineno, tokens


def _ints(lineno: int, tokens: list[str]) -> list[int]:
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:  # int() also refuses more digits than sys.get_int_max_str_digits()
            raise ParseError(f"line {lineno}: expected an integer, got {tok!r}") from None
    return out


def _plain_rows(block: str, k: int, m: int) -> np.ndarray | None:
    """The (m, k) array of an edge block that holds only ASCII digits,
    spaces, tabs and \\n or \\r\\n line ends, every line blank or holding k
    numbers that fit int64, and no run of 20 zeros; None for any other block.

    numpy's loadtxt reads such a block as int() reads it line by line. The
    checks keep out where the two differ: a vertical tab or form feed, which
    loadtxt takes for a space, and a number of more digits than int() takes
    (at least 640), which fits int64 only after 621 or more leading zeros.
    """
    if not block.isascii():
        return None
    block = block.replace("\r\n", "\n")
    data = block.encode("ascii")
    if data.translate(None, b"0123456789 \t\n") or b"0" * 20 in data:
        return None
    if not data.strip():  # loadtxt warns on a block with no numbers
        return np.empty((0, k), dtype=np.int64) if m == 0 else None
    try:
        rows = np.loadtxt(io.StringIO(block), dtype=np.int64, comments=None, ndmin=2)
    except ValueError:  # ragged lines, or a number past int64
        return None
    return rows if rows.shape == (m, k) else None


def _edge_rows(lines, k: int, n: int, m: int) -> np.ndarray:
    """The (m, k) array of the edge lines read one at a time; the first
    line that breaks a rule raises ParseError."""
    rows: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for lineno, tokens in lines:
        if len(rows) == m:
            raise ParseError(f"line {lineno}: more than {m} edge lines")
        values = _ints(lineno, tokens)
        if len(values) != k:
            raise ParseError(f"line {lineno}: expected {k} vertices, got {len(values)}")
        for v in values:
            if not 0 <= v < n:
                raise ParseError(f"line {lineno}: vertex {v} out of range for n={n}")
        edge = tuple(sorted(values))
        if len(set(edge)) != k:
            raise ParseError(f"line {lineno}: repeated vertex in edge")
        if edge in seen:
            raise ParseError(f"line {lineno}: duplicate edge {edge}")
        seen.add(edge)
        rows.append(edge)
    if len(rows) != m:
        raise ParseError(f"expected {m} edge lines, got {len(rows)}")
    return np.array(rows, dtype=np.intp).reshape(m, k)


def _parse(text: str, magic: str, build):
    """build(k, n, rows) for the file's header values and (m, k) edge array."""
    head, _, block = text.partition("\n")
    # When the text up to its first \n is one line, block holds every line
    # from line 2 on: a header on line 1 is read without splitting the whole
    # text, and only then may the block be read in bulk.
    one_line = len(f"{head}\n".splitlines()) == 1
    lines = _lines(block, start=2) if one_line else _lines(text)
    lineno, tokens = (one_line and next(_lines(head), None)) or next(lines, (1, None))
    if tokens is None:
        raise ParseError("line 1: empty input")
    if tokens[0] != magic:
        raise ParseError(f"line {lineno}: expected {magic!r} header, got {tokens[0]!r}")
    arity = 2 if magic == "graph" else 3
    if len(tokens) != 1 + arity:
        raise ParseError(f"line {lineno}: {magic!r} header takes {arity} integers")
    header = _ints(lineno, tokens[1:])
    n, m = header[-2:]  # both headers end in "<n> <m>"
    if n > MAX_VERTICES:
        raise ParseError(f"line {lineno}: {n} vertices exceed the limit of {MAX_VERTICES}")
    k = header[0] if magic == "hypergraph" else 2
    if k < 2 or n < 1 or m < 0:
        raise ParseError(f"line {lineno}: header values out of range")
    if one_line and lineno == 1:
        rows = _plain_rows(block, k, m)
        if rows is not None:
            try:
                return build(k, n, rows)
            except ValueError:
                pass  # the line reader names the refused line
    return build(k, n, _edge_rows(lines, k, n, m))


def parse_graph(text: str) -> SimpleGraph:
    """Read a graph file; malformed input raises ParseError with a line number."""
    return _parse(text, "graph", lambda k, n, rows: SimpleGraph(n, rows))


def _edge_lines(edges: np.ndarray) -> str:
    """The text of the (m, k) rows, one per line: every number is written
    in right-aligned digit slots plus a separator slot, and the slots of
    leading zeros are dropped."""
    rest = edges.ravel()  # row by row
    width = len(str(rest.max(initial=0)))
    chars = np.full((len(rest), width + 1), ord(" "), dtype=np.uint8)
    chars[edges.shape[1] - 1 :: edges.shape[1], width] = ord("\n")
    keep = np.ones(chars.shape, dtype=bool)
    for slot in range(width - 1, 0, -1):
        high = rest // 10  # numpy divides by a scalar several times faster than by an array
        chars[:, slot] = rest - 10 * high + ord("0")
        rest = high
        keep[:, slot - 1] = rest > 0
    chars[:, 0] = rest + ord("0")
    return chars[keep].tobytes().decode("ascii")


def serialize_graph(g: SimpleGraph) -> str:
    return f"graph {g.n} {g.m}\n" + _edge_lines(g.edge_array)


def parse_hypergraph(text: str) -> Hypergraph:
    """Read a hypergraph file; malformed input raises ParseError with a line number."""
    return _parse(text, "hypergraph", Hypergraph)


def serialize_hypergraph(h: Hypergraph) -> str:
    return f"hypergraph {h.k} {h.n} {h.m}\n" + _edge_lines(h.edge_array)
