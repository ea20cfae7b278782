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
from hypergraph_spectra.fileio import MAX_VERTICES


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

    def test_hypergraph_wrong_arity(self):
        with pytest.raises(ParseError, match="expected 4"):
            parse_hypergraph("hypergraph 4 5 1\n0 1 2\n")

    def test_hypergraph_magic_mismatch(self):
        with pytest.raises(ParseError):
            parse_hypergraph("graph 3 1\n0 1\n")

    def test_graph_magic_mismatch(self):
        with pytest.raises(ParseError):
            parse_graph("hypergraph 2 3 1\n0 1\n")


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
