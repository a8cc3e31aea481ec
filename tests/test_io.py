import random

from hypothesis import given, settings, strategies as st
import pytest

from exactcolor import (
    Coloring,
    ExactColoringError,
    InconsistentHeaderError,
    OutOfRangeError,
    ParseError,
    SelfLoopError,
    build_graph,
    path,
    read_coloring,
    read_graph,
    sniff_format,
    write_coloring,
    write_graph,
)
from exactcolor import graph_io


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return build_graph(n, edges)


class TestEdgelist:
    def test_triangle(self):
        g = read_graph("3 3\n0 1\n1 2\n2 0")
        assert g == build_graph(3, [(0, 1), (1, 2), (2, 0)])

    def test_crlf_and_comments(self):
        g = read_graph("# c\r\n3 2\r\n0 1\r\n1 2\r\n")
        assert g == path(3)

    def test_bytes_input(self):
        assert read_graph(b"2 1\n0 1\n") == path(2)

    def test_missing_header(self):
        with pytest.raises(ParseError):
            read_graph("")

    def test_bad_edge_line_number(self):
        with pytest.raises(ParseError) as exc:
            read_graph("2 1\n0 x\n")
        assert exc.value.line == 2

    def test_inconsistent_header(self):
        with pytest.raises(InconsistentHeaderError):
            read_graph("3 3\n0 1\n1 2\n")


# One EDGELIST line: plain "u v", or a form only the line parser reads (or rejects):
# other separators, signs, underscores, non-ASCII digits, wrong field counts.
_FIELD = st.one_of(
    st.integers(min_value=0, max_value=7).map(str),
    st.sampled_from(["+1", "1_0", "-1", "\u0663", "\uff12", "x", "007"]),
)
_PLAIN = st.tuples(st.integers(0, 7), st.integers(0, 7)).map(lambda e: f"{e[0]} {e[1]}")
_LINE = st.one_of(
    _PLAIN,
    st.tuples(_FIELD, _FIELD, st.sampled_from([" ", "\t", "  "])).map(lambda t: t[0] + t[2] + t[1]),
    st.sampled_from(["", "# comment", " 1 2", "1 2 ", "3", "1 2 3"]),
)


@st.composite
def edgelist_texts(draw):
    """Half plain texts (the fast path's shape), half with any of the line parser's cases."""
    plain = draw(st.booleans())
    body = draw(st.lists(_PLAIN if plain else _LINE, max_size=8))
    m = len(body) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    lines = [f"{draw(st.sampled_from(['8', '8', '3', '+8']))} {m}"] + body
    if plain:
        return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# c"])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol, eol + eol]))


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ExactColoringError as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


def random_plain_text(rng):
    """A plain EDGELIST text: duplicate edges in both orientations, isolated vertices, maybe m = 0."""
    n = rng.choice([0, 1, 2, rng.randint(3, 15), rng.randint(90, 1200)])
    m = 0 if n < 2 or rng.random() < 0.1 else rng.randint(1, 2 * n)
    edges = [rng.sample(range(n), 2) for _ in range(m)]
    edges += [edge[::-1] for edge in rng.sample(edges, m // 4)]  # repeated the other way round
    rng.shuffle(edges)
    text = "\n".join([f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges])
    return text + rng.choice(["", "\n"])


def refuse_line_parsing(_):
    raise AssertionError("plain EDGELIST text went to the line parser")


class TestEdgelistFastPath:
    @given(edgelist_texts())
    @settings(max_examples=300)
    def test_same_graph_or_error_as_the_line_parser(self, text):
        expect = parse_outcome(graph_io._parse_edgelist_lines, text)
        assert parse_outcome(read_graph, text) == expect

    def test_json_path_matches_the_line_parser_on_random_plain_files(self, monkeypatch):
        rng = random.Random(3)
        texts = [random_plain_text(rng) for _ in range(600)]
        expect = [graph_io._parse_edgelist_lines(text) for text in texts]
        monkeypatch.setattr(graph_io, "_parse_edgelist_lines", refuse_line_parsing)
        assert [read_graph(text) for text in texts] == expect
        # the cases the generator promises all occur
        assert any(g.m == 0 and g.n >= 2 for g in expect)
        assert any(not text.endswith("\n") for text in texts)
        assert any(g.m < int(text.split()[1]) for g, text in zip(expect, texts))  # duplicates
        assert any(0 in map(len, g.adj) and g.m for g in expect)  # isolated vertices

    @pytest.mark.parametrize("text,expect", [
        ("3 2\n00 1\n1 02\n", path(3)),             # leading zeros
        ("03 2\n0 1\n1 2", path(3)),
        ("3 1\n1e5 2\n", (ParseError, 2, "line 2: non-integer endpoint")),
        ("3 1\n-1 2\n", (OutOfRangeError, None, "edge (-1, 2) has an endpoint outside [0, 3)")),
        ("3 1\n0 1 2\n", (ParseError, 2, "line 2: expected edge line 'u v'")),
        ("3 2\n0 1\n\n1 2\n", path(3)),            # an empty line
        ("3 1\n0 1\n\n", build_graph(3, [(0, 1)])),
        ("3 2\n0\t1\n1 2\n", path(3)),
        ("3 2\r\n0 1\r\n1 2\r\n", path(3)),
        ("3 2\n\u0660 1\n1 \u0662\n", path(3)),   # Arabic-Indic digits, which int() reads
        ("3 1\n 0 1\n", build_graph(3, [(0, 1)])),
        ("3 1\n0  1\n", build_graph(3, [(0, 1)])),
        # too many digits for int(), and so for JSON: a parse error, not a ValueError
        ("3 1\n0 " + "1" * 5000 + "\n", (ParseError, 2, "line 2: non-integer endpoint")),
    ])
    def test_texts_json_rejects_read_line_by_line(self, text, expect):
        assert parse_outcome(read_graph, text) == expect

    def test_plain_files_never_reach_the_line_parser(self, monkeypatch):
        monkeypatch.setattr(graph_io, "_parse_edgelist_lines", refuse_line_parsing)
        assert read_graph(write_graph(path(40))) == path(40)
        assert read_graph(write_graph(build_graph(5, []))) == build_graph(5, [])
        assert read_graph("3 2\n0 1\n1 2") == path(3)
        with pytest.raises(SelfLoopError):   # found by build_graph, not by the parser
            read_graph("4 1\n3 3\n")


class TestDimacs:
    def test_path3(self):
        g = read_graph("p edge 3 2\ne 1 2\ne 2 3", fmt="dimacs")
        assert g == path(3)

    def test_comments_ignored(self):
        g = read_graph("c hello\np edge 2 1\ne 1 2\n", fmt="dimacs")
        assert g == path(2)

    def test_zero_based_rejected(self):
        with pytest.raises(ParseError):
            read_graph("p edge 2 1\ne 0 1\n", fmt="dimacs")

    def test_endpoint_above_n_names_the_file_vertex_and_line(self):
        with pytest.raises(ParseError) as info:
            read_graph("p edge 5 1\ne 5 6\n", fmt="dimacs")
        assert info.value.line == 2
        assert str(info.value) == "line 2: vertex 6 exceeds n = 5"

    def test_header_mismatch(self):
        with pytest.raises(InconsistentHeaderError):
            read_graph("p edge 3 5\ne 1 2\n", fmt="dimacs")

    def test_sniff(self):
        assert sniff_format("p edge 1 0\n") == "dimacs"
        assert sniff_format("3 0\n") == "edgelist"

    def test_sniff_reads_the_first_nonblank_line(self):
        assert sniff_format("\n \r\n\t c made by hand\np edge 1 0\n") == "dimacs"
        assert sniff_format(b"\r\n  e 1 2\n") == "dimacs"
        assert sniff_format("\n\n# c\n3 0\n") == "edgelist"
        assert sniff_format(" \n\n") == sniff_format("") == "edgelist"


class TestRoundTrip:
    @given(graphs())
    @settings(max_examples=80)
    def test_edgelist_round_trip(self, g):
        assert read_graph(write_graph(g, "edgelist"), "edgelist") == g

    @given(graphs())
    @settings(max_examples=80)
    def test_dimacs_round_trip(self, g):
        assert read_graph(write_graph(g, "dimacs"), "dimacs") == g

    def test_write_is_canonical(self):
        # same graph built with different edge orders serializes identically
        a = build_graph(4, [(3, 2), (0, 1), (1, 0), (2, 1)])
        b = build_graph(4, [(1, 2), (2, 3), (0, 1)])
        assert write_graph(a) == write_graph(b)


class TestColoringFiles:
    def test_round_trip(self):
        c = Coloring(3, (0, 2, 1, 0))
        assert read_coloring(write_coloring(c), n=4) == c

    def test_count_checked(self):
        with pytest.raises(InconsistentHeaderError):
            read_coloring("2\n0\n1\n", n=3)

    def test_color_range_checked(self):
        with pytest.raises(ParseError):
            read_coloring("2\n0\n5\n")
