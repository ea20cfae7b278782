import re
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergraph_spectra import (
    Hypergraph,
    ParseError,
    SimpleGraph,
    parse_graph,
    parse_hypergraph,
    serialize_graph,
    serialize_hypergraph,
)
from hypergraph_spectra import fileio
from hypergraph_spectra.fileio import MAX_VERTICES

from helpers import line_reader, serialize_reference


class TestGraphRoundTrip:
    def test_basic(self):
        g = SimpleGraph(4, ((0, 1), (1, 2), (2, 3)))
        assert parse_graph(serialize_graph(g)) == g

    def test_isolated_vertices_survive(self):
        g = SimpleGraph(6, ((0, 1),))
        assert parse_graph(serialize_graph(g)).n == 6

    def test_edgeless(self):
        g = SimpleGraph(3, ())
        assert parse_graph(serialize_graph(g)) == g

    def test_serialization_is_canonical(self):
        text = "graph 3 2\n2 1\n1 0\n"
        g = parse_graph(text)
        assert serialize_graph(g) == "graph 3 2\n0 1\n1 2\n"


class TestHypergraphRoundTrip:
    def test_basic(self):
        h = Hypergraph(4, 6, ((0, 1, 2, 3), (2, 3, 4, 5)))
        assert parse_hypergraph(serialize_hypergraph(h)) == h

    def test_scrambled_vertex_order_parses(self):
        h = parse_hypergraph("hypergraph 3 4 1\n3 0 2\n")
        assert h.edges == ((0, 2, 3),)


class TestLenientInput:
    def test_comments_and_blanks_ignored(self):
        text = "# a path\n\ngraph 3 2\n0 1\n# middle\n1 2\n\n"
        assert parse_graph(text) == SimpleGraph(3, ((0, 1), (1, 2)))

    def test_trailing_comment_after_counts(self):
        h = parse_hypergraph("hypergraph 3 3 1  # one edge\n0 1 2\n")
        assert h.m == 1


class TestParseErrors:
    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "empty"),
            ("hedgehog 3 2\n0 1\n1 2\n", "header"),
            ("graph 3\n", "header"),
            ("graph x 1\n0 1\n", "integer"),
            ("graph 3 1\n0 1 2\n", "expected 2"),
            ("graph 3 1\n0 3\n", "range"),
            ("graph 3 2\n0 1\n1 0\n", "duplicate"),
            ("graph 3 1\n1 1\n", "repeat"),
            ("graph 3 1\n0 1\n1 2\n", "more than 1"),
            ("graph 3 2\n0 1\n", "2 edge lines, got 1"),
        ],
    )
    def test_graph_errors_mention_cause(self, text, fragment):
        with pytest.raises(ParseError) as exc:
            parse_graph(text)
        assert fragment in str(exc.value)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 4"):
            parse_graph("# c\ngraph 3 2\n0 1\n0 9\n")

    @pytest.mark.parametrize(
        "parse, text",
        [(parse_graph, "# c\n\ngraph 0 1\n"), (parse_hypergraph, "\n# c\nhypergraph 1 4 0\n")],
    )
    def test_header_values_out_of_range_name_the_header_line(self, parse, text):
        with pytest.raises(ParseError, match="^line 3: header values out of range$"):
            parse(text)

    def test_hypergraph_wrong_arity(self):
        with pytest.raises(ParseError, match="expected 4"):
            parse_hypergraph("hypergraph 4 5 1\n0 1 2\n")

    def test_hypergraph_magic_mismatch(self):
        with pytest.raises(ParseError):
            parse_hypergraph("graph 3 1\n0 1\n")

    def test_graph_magic_mismatch(self):
        with pytest.raises(ParseError):
            parse_graph("hypergraph 2 3 1\n0 1\n")


class TestRefusedEdgeBlock:
    """A refused edge block is validated once, and the row that validation
    found names the line."""

    @pytest.mark.parametrize(
        "last, message",
        [
            ("0 1 2 3", "line 7: duplicate edge (0, 1, 2, 3)"),
            ("4 4 5 6", "line 7: repeated vertex in edge"),
            ("4 5 6 99", "line 7: vertex 99 out of range for n=40"),
        ],
    )
    def test_hypergraph_file(self, monkeypatch, last, message):
        from hypergraph_spectra import core

        calls = []

        def counted(edges, n):
            calls.append(len(edges))
            return canonical(edges, n)

        canonical = core.canonical_edges
        monkeypatch.setattr(core, "canonical_edges", counted)
        body = ["3 2 1 0", "4 5 6 7", "8 9 10 11", "12 13 14 15", "16 17 18 19"]
        text = "hypergraph 4 40 6\n" + "\n".join(body + [last]) + "\n"
        with pytest.raises(ParseError) as info:
            parse_hypergraph(text)
        assert str(info.value) == message
        assert calls == [6]

    def test_graph_file(self):
        with pytest.raises(ParseError, match="^line 4: duplicate edge \\(0, 1\\)$"):
            parse_graph("graph 5 3\n0 1\n1 2\n1 0\n")


class TestVertexLimit:
    @pytest.mark.parametrize(
        "parse, header",
        [(parse_graph, "graph {n} 0"), (parse_hypergraph, "hypergraph 4 {n} 0")],
    )
    def test_limit_is_inclusive(self, parse, header):
        assert parse(header.format(n=MAX_VERTICES) + "\n").n == MAX_VERTICES
        with pytest.raises(ParseError, match="line 1: .*limit"):
            parse(header.format(n=MAX_VERTICES + 1) + "\n")

    def test_hostile_header_refused_before_the_body(self):
        with pytest.raises(ParseError, match="line 2: .*limit"):
            parse_hypergraph("# comment\nhypergraph 4 1000000000000 1\n0 1 2 3\n")


@st.composite
def uniform_edge_sets(draw, k_min: int, k_max: int) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """(k, n, edges): distinct random k-sets on n vertices."""
    k = draw(st.integers(k_min, k_max))
    n = draw(st.integers(k, k + 6))
    edge = st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    edges = draw(st.sets(edge.map(lambda e: tuple(sorted(e))), max_size=12))
    return k, n, tuple(edges)


def reshuffled(text: str, data: st.DataObject) -> str:
    """text with its edge lines in a random order and a comment line at a
    random position."""
    header, *edges = text.splitlines()
    lines = [header] + data.draw(st.permutations(edges))
    lines.insert(data.draw(st.integers(0, len(lines))), "# shuffled")
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(uniform_edge_sets(2, 6), st.data())
def test_hypergraph_round_trip(spec, data):
    h = Hypergraph(*spec)
    text = serialize_hypergraph(h)
    assert parse_hypergraph(text) == h
    assert parse_hypergraph(reshuffled(text, data)) == h


@settings(max_examples=100, deadline=None, derandomize=True)
@given(uniform_edge_sets(2, 2), st.data())
def test_graph_round_trip(spec, data):
    _, n, edges = spec
    g = SimpleGraph(n, edges)
    text = serialize_graph(g)
    assert parse_graph(text) == g
    assert parse_graph(reshuffled(text, data)) == g


# ------------------------------------------------------ writer vs join oracle


@st.composite
def written_objects(draw) -> Hypergraph:
    """A graph or hypergraph of 0 to 130 edges whose labels run from one
    digit up to MAX_VERTICES - 1, the largest a file may hold."""
    k = draw(st.integers(2, 6))
    n = draw(st.sampled_from([k, 10, 11, 100, 1001, MAX_VERTICES]) | st.integers(k, MAX_VERTICES))
    label = st.sampled_from([0, n - 1, n // 10, n // 10 - 1]).filter(lambda v: v >= 0) | st.integers(0, n - 1)
    edge = st.lists(label, min_size=k, max_size=k, unique=True).map(lambda e: tuple(sorted(e)))
    edges = tuple(draw(st.sets(edge, max_size=130 if n > 20 else 0)))
    graph = k == 2 and draw(st.booleans())
    return SimpleGraph(n, edges) if graph else Hypergraph(k, n, edges)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(written_objects())
def test_writer_matches_the_join_oracle(h):
    write = serialize_graph if isinstance(h, SimpleGraph) else serialize_hypergraph
    assert write(h) == serialize_reference(h)


@pytest.mark.parametrize("m", [0, 1, 63, 64, 65, 500])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_writer_matches_the_join_oracle_at_the_largest_labels(k, m):
    rows = np.arange(MAX_VERTICES - k * m, MAX_VERTICES).reshape(m, k)
    h = Hypergraph(k, MAX_VERTICES, rows)
    assert serialize_hypergraph(h) == serialize_reference(h)
    if k == 2:
        g = SimpleGraph(MAX_VERTICES, rows)
        assert serialize_graph(g) == serialize_reference(g)
        assert parse_graph(serialize_graph(g)) == g


# ------------------------------------------------- array reader vs line reader

READERS = {"graph": parse_graph, "hypergraph": parse_hypergraph}


def outcome(read, text: str):
    """The graph read, or the text of the ParseError raised."""
    try:
        return read(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


def assert_readers_agree(magic: str, text: str) -> None:
    got = outcome(READERS[magic], text)
    assert got == outcome(lambda t: line_reader(t, magic), text)
    if isinstance(got, Hypergraph):
        np.testing.assert_array_equal(got.edge_array, np.array(got.edges).reshape(got.m, got.k))


NOT_INTEGERS = ("x", "1.5", "0x1", "1e3", "+", "-", "_1", "1_", "1__0", "+-1", "+_1", "1-", "#1")
SEPARATORS = (" ", "  ", "\t", " \t")
LINE_ENDS = ("\n", "\r\n", "\r", "\v", "\f")


@st.composite
def edited_files(draw, magic: str, plain: bool = False) -> str:
    """A valid file, at most one edit that may break a rule, and random
    spacing, line endings, comments and blank lines; or, when plain, the
    layout serialization writes: single spaces and \\n line ends."""

    def pick(options):  # the first option in a plain file
        return options[0] if plain else draw(st.sampled_from(options))

    k = 2 if magic == "graph" else draw(st.integers(2, 5))
    n = draw(st.integers(k, k + 5))
    edge = st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    edges = draw(st.lists(edge, max_size=8, unique_by=lambda e: tuple(sorted(e))))
    header = [magic, k, n, len(edges)] if magic == "hypergraph" else [magic, n, len(edges)]
    lines = [[str(x) for x in header]] + [[str(v) for v in e] for e in edges]
    edit = draw(
        st.sampled_from(
            ("none", "drop", "add", "word", "plus", "minus", "range", "huge", "zeros",
             "underscore", "repeat", "duplicate", "extra", "missing", "header", "break")
        )
    )
    recount = draw(st.booleans())  # keep the header's edge count right after adding or removing a line
    row = draw(st.integers(1, max(1, len(lines) - 1)))
    if edit == "header":
        col = draw(st.integers(1, len(header) - 1))
        lines[0][col] = str(draw(st.integers(-1, 12)))
    elif edit == "extra":
        lines.insert(row, [str(draw(st.integers(0, n - 1))) for _ in range(k)])
    elif edit == "duplicate" and len(lines) > 1:
        lines.insert(draw(st.integers(row + 1, len(lines))), draw(st.permutations(lines[row])))
    elif edit == "missing" and len(lines) > 1:
        del lines[row]
    elif len(lines) > 1:
        line = lines[row]
        col = draw(st.integers(0, len(line) - 1))
        if edit == "drop":
            del line[col]
        elif edit == "add":
            line.insert(col, str(draw(st.integers(0, n + 1))))
        elif edit == "word":
            line[col] = draw(st.sampled_from(NOT_INTEGERS))
        elif edit == "plus":
            line[col] = "+" + line[col]
        elif edit == "minus":
            line[col] = "-1"
        elif edit == "range":
            line[col] = str(n + draw(st.integers(0, 3)))
        elif edit == "huge":
            line[col] = draw(st.sampled_from(("99999999999", "-1234567890123", "1" * 30)))
        elif edit == "zeros":
            line[col] = "0" * draw(st.integers(1, 12)) + line[col]
        elif edit == "underscore":
            line[col] = "0_" + line[col]
        elif edit == "repeat":
            line[col] = line[(col + 1) % len(line)]
    if edit in ("extra", "duplicate", "missing") and recount:
        lines[0][-1] = str(len(lines) - 1)
    if edit == "break":  # a vertical tab or form feed between two numbers splits their line
        line = lines[draw(st.integers(0, len(lines) - 1))]
        col = draw(st.integers(1, len(line)))
        line.insert(col, draw(st.sampled_from(("\v", "\f"))))
    text = ""
    for line in lines:
        for _ in range(0 if plain else draw(st.integers(0, 1))):
            text += draw(st.sampled_from(("", "  ", "# comment", "\t# 1 2 3"))) + draw(st.sampled_from(LINE_ENDS))
        sep = pick(SEPARATORS)
        text += pick(("", " ", "\t")) + sep.join(line).replace(f"{sep}\v{sep}", "\v").replace(f"{sep}\f{sep}", "\f")
        text += pick(("", " ", " # trailing", "#0 1"))
        text += pick(LINE_ENDS)
    if draw(st.booleans()):
        text = text.rstrip("\n\r\v\f")
    return text


@pytest.mark.parametrize("magic", sorted(READERS))
@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_array_reader_matches_line_reader(magic, data):
    assert_readers_agree(magic, data.draw(edited_files(magic)))


def is_plain(text: str) -> bool:
    """Whether the text up to its first \\n is one line, and the lines after
    it hold only ASCII digits, spaces, tabs and \\n or \\r\\n line ends, with
    no run of 20 zeros."""
    head, _, body = text.partition("\n")
    body = body.replace("\r\n", "\n")
    one_line = len(f"{head}\n".splitlines()) == 1
    return one_line and bool(re.fullmatch("[0-9 \t\n]*", body)) and "0" * 20 not in body


@pytest.mark.parametrize("magic", sorted(READERS))
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_plain_files_are_read_in_bulk(magic, data):
    text = data.draw(edited_files(magic, plain=True))
    if data.draw(st.booleans()):
        text = text.replace(" ", data.draw(st.sampled_from(["\t", " \t"])))
    if data.draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    returned = []

    def spy(*args):
        returned.append(real(*args))
        return returned[-1]

    real = fileio._plain_rows
    with mock.patch.object(fileio, "_plain_rows", spy):
        assert_readers_agree(magic, text)
    if is_plain(text) and not isinstance(outcome(lambda t: line_reader(t, magic), text), str):
        assert returned and returned[0] is not None


class _Unsplittable(str):
    def splitlines(self, keepends=False):
        raise AssertionError("the whole text was split into lines")


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_graph, "graph 3 2  # a path\n0 1\n1 2\n"),
        (parse_hypergraph, "hypergraph 3 5 2\r\n0 1 2\r\n\r\n2 3 4\r\n"),
    ],
)
def test_header_on_line_one_is_read_without_splitting_the_text(parse, text):
    assert parse(_Unsplittable(text)) == parse(text)


@pytest.mark.parametrize("magic, header", [("graph", "graph 6 3"), ("hypergraph", "hypergraph 3 6 2")])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    body=st.text(alphabet="0123456789012345 +-_#x\t\n\r\v\f\x1c\x1f\xa0\x85\u2028\u0663\uff11\xe9"),
    end=st.sampled_from(["\n", "\r\n", "\r", "\v\n", "\f\n", "\x1c\n", "\x85\n", "\u2028\n", "\u2029\n"]),
)
def test_array_reader_matches_line_reader_on_any_text(magic, header, body, end):
    assert_readers_agree(magic, f"{header}{end}{body}")
    assert_readers_agree(magic, body)


@pytest.mark.parametrize(
    "text",
    [
        "hypergraph 3 4 1\n\u0663 0 1\n",  # Arabic-Indic three
        "hypergraph 3 4 1  # caf\xe9\n0\xa01\u20032\n",
        "hypergraph 3 4 2\u20280 1 2\x851 2 3",
        "hypergraph 3 4 1\n0 1 \xe9\n",
        "hypergraph 3 4 1\n0 1 " + "0" * 5000 + "2\n",  # past int()'s digit limit
        "hypergraph 3 4 1\n0 1 000000000000000002\n",
        "hypergraph 3 4 1\n0 1 0000000000000000002\n",
        "hypergraph 3 6 2\n0 1\n2 3 4 5\n",  # m·k numbers, but not k on every line
        "hypergraph 2 4 2\n0 1 2 3\n\n",
        "hypergraph 4 4 1\n0 1\n2 3\n",
        "hypergraph 3 4 1\n0 1 2_0\n",
        "hypergraph 3 4 1\n0 1 -0\n",
        "hypergraph 3 1000000000000 1\n",
        "\n# c\nhypergraph 1 4 0\n",
        "# only a comment\n\n",
        "hypergraph 3 4 1\r\n\r\n0 1 2\r\n",
        "hypergraph 3 4 1\r0 1 2\n",  # line 1 ends in \r, before the first \n
        "hypergraph 3 4 1\x0c\n0 1 2\n",
        "hypergraph 3 4 2\x0c\n0 1 2\n0 1 2\n",  # a second line break before the first \n
        "hypergraph 3 4 2\x85\n0 1 2\n# c\n0 1 2\n",
        "hypergraph 3 4 2\u2028\n0 1 2\n0 1 2\n",
        "hypergraph 3 4 2\r\r\n0 1 2\n0 1 2\n",
        "# c\nhypergraph 3 4 2\n0 1 2\n0 1 2\n",
        "hypergraph 3 4 2\n0 1 2\n2 1 0\n",
        "hypergraph 3 4 1\r",
        "\r\nhypergraph 3 4 1\n0 1 2\n",
        "\r",
        "",
        "hypergraph 3 4 1\n0 1 9223372036854775808\n",  # past int64
        "hypergraph 3 4 1\n0 1 9223372036854775807\n",
        "hypergraph 3 4 1\n0 1 00000000000000000002\n",  # 19 zeros: read in bulk
        "hypergraph 3 4 1\n0 1 000000000000000000002\n",  # 20 zeros: read line by line
        "hypergraph 3 4 1\n0 1\v2\n",
        "hypergraph 3 4 2\n0 1 2\f1 2 3\n",
        "hypergraph 3 4 1\n0\v1 2\n",
        "hypergraph 3 4 2\n0 1 2\r1 2 3\n",
        "hypergraph 3 4 2\n0\t1\t2\n1\t\t2\t3\n",
        "hypergraph 3 4 0\n \t\n\n",
        "hypergraph 3 4 1\n \t\n\n",
        "hypergraph 3 4 2\n0 1 2\n1 2 3",
        "hypergraph 3 5 2\n0 1 2 3\n1 2\n",
    ],
)
def test_array_reader_matches_line_reader_on_odd_text(text):
    assert_readers_agree("hypergraph", text)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="int() has no digit limit")
def test_readers_agree_under_the_lowest_int_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert_readers_agree("hypergraph", "hypergraph 3 4 1\n0 1 " + "0" * 699 + "2\n")
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_graph, "graph 3 0\n"),
        (parse_hypergraph, "hypergraph 3 4 0\n  \n\t\n"),
        (parse_hypergraph, "hypergraph 3 4 1\n\n \n"),
    ],
)
def test_bulk_reader_emits_no_warnings(parse, text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome(parse, text)
