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
before anything is sized by it. The edge lines are read into one integer
array and checked as a whole; a malformed file raises ParseError naming
the first line that breaks a rule, by its number among all lines.
Serialization is canonical: every edge ascending, edges in lexicographic
order, ``\\n`` line endings.
"""

from __future__ import annotations

import numpy as np

from .core import Hypergraph, SimpleGraph, _RefusedEdge, canonical_edges

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

# Tokens up to this length are evaluated in int64 by numpy; longer ones
# (leading zeros, or far out of range) by int().
_SHORT = 9


class ParseError(ValueError):
    """Malformed graph or hypergraph text; message carries the line number."""


def _within(data: np.ndarray, low: int, count: int) -> np.ndarray:
    """Which bytes lie in low .. low + count - 1."""
    return np.subtract(data, low, dtype=np.uint8) < count


class _AsciiStandIns(dict):
    """str.translate table giving each non-ASCII character the ASCII one
    that plays its part: a decimal digit its digit, a line break a vertical
    tab, other whitespace a space, anything else a letter."""

    def __missing__(self, code: int) -> int:
        ch = chr(code)
        if code < 128:
            out = code
        elif ch.isdecimal():
            out = ord(str(int(ch)))
        elif len(f"a{ch}a".splitlines()) == 2:
            out = ord("\v")
        else:
            out = ord(" ") if ch.isspace() else ord("x")
        self[code] = out
        return out


_ASCII_STAND_INS = _AsciiStandIns()


class _Tokens:
    """The whitespace-separated tokens of a text outside its comments, as
    arrays: start and end offsets, line numbers, whether each is an
    integer as int() reads it, and its value (exact up to 2**62 in
    magnitude, clipped beyond)."""

    def __init__(self, text: str):
        self.text = text
        if not text.isascii():
            text = text.translate(_ASCII_STAND_INS)  # one character for each
        data = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        # Line breaks as str.splitlines sees them (\n \v \f \r, 0x1c-0x1e),
        # with \r\n as one; whitespace as str.split sees it (also \t, 0x1f, space).
        breaks = _within(data, 10, 4) | _within(data, 28, 3)
        breaks[1:] &= (data[1:] != ord("\n")) | (data[:-1] != ord("\r"))
        inside = ~(_within(data, 9, 5) | _within(data, 28, 5))
        if "#" in text:
            at = np.arange(len(data), dtype=np.int32)
            last_break = np.maximum.accumulate(np.where(breaks, at, -1))
            inside &= np.maximum.accumulate(np.where(data == ord("#"), at, -1)) <= last_break
            del at, last_break
        step = np.zeros(len(data) + 1, dtype=np.int8)
        step[:-1] = inside
        step[1:] -= inside
        self.starts = np.flatnonzero(step == 1)
        self.ends = np.flatnonzero(step == -1)
        # A token's line: 1 + the breaks before it, counted at the token each break precedes.
        after_break = np.searchsorted(self.starts, np.flatnonzero(breaks))
        self.lines = np.cumsum(np.bincount(after_break, minlength=len(self.starts) + 1)[:-1]) + 1

        # Characters in tokens other than digits; a sign that starts a token
        # and an underscore between digits are allowed, any other is a fault.
        digit = _within(data, ord("0"), 10)
        odd = np.flatnonzero(inside & ~digit)
        c = data[odd]
        before_digit = digit[np.minimum(odd + 1, len(data) - 1)] & (odd + 1 < len(data))
        starts_token = self.starts[np.searchsorted(self.starts, odd, side="right") - 1] == odd
        sign = ((c == ord("+")) | (c == ord("-"))) & before_digit & starts_token
        joint = (c == ord("_")) & before_digit & digit[np.maximum(odd - 1, 0)] & (odd > 0)
        faults = odd[~(sign | joint)]
        self.bad = np.searchsorted(faults, self.ends) > np.searchsorted(faults, self.starts)

        # Horner's rule over the first _SHORT characters of every integer.
        lengths = self.ends - self.starts
        self.values = np.zeros(len(self.starts), dtype=np.int64)
        for j in range(min(_SHORT, int(lengths[~self.bad].max(initial=0)))):
            d = np.subtract(data[np.minimum(self.starts + j, len(data) - 1)], ord("0"), dtype=np.uint8)
            self.values = np.where((d < 10) & (j < lengths), 10 * self.values + d, self.values)
        self.values[data[self.starts] == ord("-")] *= -1
        for t in np.flatnonzero((lengths > _SHORT) & ~self.bad):
            try:  # int() also refuses more digits than sys.get_int_max_str_digits()
                self.values[t] = max(-(2**62), min(2**62, int(self.token(t))))
            except ValueError:
                self.bad[t] = True

    def token(self, t: int) -> str:
        return self.text[self.starts[t] : self.ends[t]]


def _read(text: str, magic: str, header_arity: int) -> tuple[_Tokens, int, list[int]]:
    """The tokens, the index of the first token after the header, and the
    header's integers; header faults raise ParseError."""
    toks = _Tokens(text)
    if not len(toks.starts):
        raise ParseError("line 1: empty input")
    lineno = int(toks.lines[0])
    body = int(np.searchsorted(toks.lines, lineno, side="right"))
    if toks.token(0) != magic:
        raise ParseError(f"line {lineno}: expected {magic!r} header, got {toks.token(0)!r}")
    if body != 1 + header_arity:
        raise ParseError(f"line {lineno}: {magic!r} header takes {header_arity} integers")
    for t in range(1, body):
        if toks.bad[t]:
            raise ParseError(f"line {lineno}: expected an integer, got {toks.token(t)!r}")
    header = [int(toks.token(t)) for t in range(1, body)]
    n = header[-2]  # both headers end in "<n> <m>"
    if n > MAX_VERTICES:
        raise ParseError(f"line {lineno}: {n} vertices exceed the limit of {MAX_VERTICES}")
    return toks, body, header


def _edge_block(toks: _Tokens, body: int, arity: int, n: int, m: int, build):
    """build(rows) for the (m, arity) edge array of the lines after the
    header, in file order. When the lines are malformed, or build refuses
    a row, the first line that breaks a rule raises ParseError."""
    lines = toks.lines[body:]
    first = np.ones(len(lines), dtype=bool)
    first[1:] = lines[1:] != lines[:-1]
    heads = np.flatnonzero(first)  # the first token of each line
    counts = np.concatenate((heads[1:], [len(lines)])) - heads
    bad = np.zeros(len(lines) + 1, dtype=np.int32)
    np.cumsum(toks.bad[body:], out=bad[1:])
    malformed = (bad[heads + counts] > bad[heads]) | (counts != arity)
    # Lines before the first malformed one hold `arity` integers each.
    cut = min(int(malformed.argmax()) if malformed.any() else len(heads), m)
    rows = toks.values[body : body + cut * arity].reshape(cut, arity)
    if cut == len(heads) == m:
        try:
            return build(rows)
        except _RefusedEdge as exc:
            i = exc.row
    else:
        _, i = canonical_edges(rows, n)
        if i is None:
            i = cut
            if i == len(heads):
                raise ParseError(f"expected {m} edge lines, got {len(heads)}")
    at = f"line {lines[heads[i]]}"
    if i == m:
        raise ParseError(f"{at}: more than {m} edge lines")
    line = range(body + heads[i], body + heads[i] + counts[i])
    for t in line:
        if toks.bad[t]:
            raise ParseError(f"{at}: expected an integer, got {toks.token(t)!r}")
    if counts[i] != arity:
        raise ParseError(f"{at}: expected {arity} vertices, got {counts[i]}")
    for t in line:
        if not 0 <= toks.values[t] < n:
            raise ParseError(f"{at}: vertex {int(toks.token(t))} out of range for n={n}")
    edge = tuple(sorted(rows[i].tolist()))
    if len(set(edge)) != arity:
        raise ParseError(f"{at}: repeated vertex in edge")
    raise ParseError(f"{at}: duplicate edge {edge}")


def parse_graph(text: str) -> SimpleGraph:
    """Read a graph file; malformed input raises ParseError with a line number."""
    toks, body, (n, m) = _read(text, "graph", 2)
    if n < 1 or m < 0:
        raise ParseError("line 1: header values out of range")
    return _edge_block(toks, body, 2, n, m, lambda rows: SimpleGraph(n, rows))


def serialize_graph(g: SimpleGraph) -> str:
    lines = [f"graph {g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str) -> Hypergraph:
    """Read a hypergraph file; malformed input raises ParseError with a line number."""
    toks, body, (k, n, m) = _read(text, "hypergraph", 3)
    if k < 2 or n < 1 or m < 0:
        raise ParseError("line 1: header values out of range")
    return _edge_block(toks, body, k, n, m, lambda rows: Hypergraph(k, n, rows))


def serialize_hypergraph(h: Hypergraph) -> str:
    lines = [f"hypergraph {h.k} {h.n} {h.m}"]
    lines.extend(" ".join(str(v) for v in e) for e in h.edges)
    return "\n".join(lines) + "\n"
