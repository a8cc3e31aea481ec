import random
import re

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
    load_graph,
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

    def test_bytes_read_newlines_as_a_file_does(self, tmp_path):
        for data in (b"3 2\r0 1\r1 2\r", b"# c\r3 2\r0 1\r\r1 2", b"3 2\r\n0 1\r1 2",
                     b"p edge 3 2\re 1 2\r\ne 2 3\r"):
            (tmp_path / "g").write_bytes(data)
            text = data.decode()
            assert read_graph(data, sniff_format(data)) == load_graph(tmp_path / "g") == path(3)
            assert read_graph(text, sniff_format(text)) == path(3)

    def test_a_bad_byte_is_on_the_line_a_text_mode_read_counts(self):
        for eol in (b"\n", b"\r\n", b"\r"):
            with pytest.raises(ParseError) as info:
                read_graph(eol.join([b"3 2", b"0 1", b"1 \xff2", b""]))
            assert str(info.value) == "line 3: not UTF-8 text"

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


def refuse_line_parsing(*_):
    raise AssertionError("plain text went to the line parser")


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
        assert [read_graph(text.encode()) for text in texts] == expect
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


@st.composite
def graph_files(draw):
    """A graph file's bytes and the line (1-based) of its one non-UTF-8 byte, if it has one.

    EDGELIST or DIMACS, with LF, CRLF or lone CR, maybe a BOM, comment and
    blank lines, tabs, trailing spaces, leading zeros, a wrong edge count,
    self-loops and endpoints out of range.
    """
    dimacs = draw(st.booleans())
    n = draw(st.integers(0, 6))
    base = 1 if dimacs else 0
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []
    edges = [e[::-1] if draw(st.booleans()) else e for e in edges]
    defect = draw(st.sampled_from([None, None, None, "self-loop", "out of range"]))
    if defect == "self-loop":
        edges.append((n // 2, n // 2))
    elif defect == "out of range":
        edges.append(draw(st.sampled_from([(-1, 0), (0, n), (n + 1, 0)])))

    def num(x):
        return draw(st.sampled_from(["", "", "0"])) + str(x)

    def line(*fields):
        sep = draw(st.sampled_from([" ", " ", "\t", "  "]))
        return sep.join(fields) + draw(st.sampled_from(["", "", " ", "\t"]))

    m = len(edges) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    if dimacs:
        lines = [line("p", "edge", num(n), num(m))] + [line("e", num(u + base), num(v + base)) for u, v in edges]
    else:
        lines = [line(num(n), num(m))] + [line(num(u), num(v)) for u, v in edges]
    for extra in draw(st.lists(st.sampled_from(["", "c made by hand" if dimacs else "# c"]), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    if draw(st.integers(0, 4)) == 0:
        lines[0] = "\ufeff" + lines[0]
    raw = [text.encode() for text in lines]
    bad_line = None
    if draw(st.integers(0, 4)) == 0:
        bad_line = draw(st.integers(1, len(raw)))
        raw[bad_line - 1] += b"\xff"
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = eol.encode().join(raw) + draw(st.sampled_from([b"", eol.encode()]))
    return data, bad_line


def text_mode_outcome(path, fmt):
    """read_graph on the file read in text mode, as load_graph read it before files were read as bytes."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    bad = re.search("[\udc80-\udcff]", text)
    if bad:
        line = text.count("\n", 0, bad.start()) + 1
        return ParseError, line, f"line {line}: not UTF-8 text"
    return parse_outcome(lambda t: read_graph(t, fmt or sniff_format(t)), text)


class TestLoadGraph:
    @given(graph_files(), st.sampled_from([None, None, None, "edgelist", "dimacs"]))
    @settings(max_examples=400)
    def test_a_file_loads_as_its_text_mode_read_parses(self, tmp_path_factory, file, fmt):
        data, bad_line = file
        path = tmp_path_factory.getbasetemp() / "loader-equivalence.txt"
        path.write_bytes(data)
        got = parse_outcome(lambda p: load_graph(p, fmt), path)
        assert got == text_mode_outcome(path, fmt)
        if bad_line is not None:
            assert got == (ParseError, bad_line, f"line {bad_line}: not UTF-8 text")
        assert parse_outcome(lambda d: read_graph(d, fmt or sniff_format(d)), data) == got


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

    @pytest.mark.parametrize("text", ["\x1cp edge 1 0", "\xa0p edge 1 0", "\x85e 1 2",
                                      "\u3000\u2028\tc x", "\ufeffp edge 1 0", "\x1b p", "\u200bp"])
    def test_sniff_skips_unicode_whitespace_in_bytes(self, text):
        assert sniff_format(text.encode()) == sniff_format(text)

    def test_bytes_sniff_skips_exactly_the_characters_str_isspace_accepts(self):
        skip = re.compile(graph_io._LEADING_SPACE).fullmatch
        for c in range(0x110000):
            ch = chr(c)
            assert bool(skip(ch.encode("utf-8", "surrogatepass"))) == ch.isspace(), hex(c)

    @given(st.text(st.sampled_from(" \t\n\r\x0b\x1c\x1f\x85\xa0\u2000\u3000\ufeff\x1bpce1#"),
                   max_size=8))
    @settings(max_examples=300)
    def test_bytes_sniff_as_their_text(self, text):
        assert sniff_format(text.encode()) == sniff_format(text)


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


def random_plain_coloring(rng):
    """A plain coloring file and its vertex count: k, then one color per line."""
    n = rng.choice([0, 1, rng.randint(2, 20), rng.randint(500, 2500)])
    k = rng.randint(1, 12)
    text = "\n".join(map(str, [k] + [rng.randrange(k) for _ in range(n)]))
    return text + rng.choice(["", "\n"]), n


# One coloring line: a color, or a form only the line parser reads (or rejects)
_COLOR_LINE = st.one_of(
    st.integers(0, 5).map(str),
    st.sampled_from(["", "# c", "007", "-1", "+1", " 2", "2 ", "1 2", "x", "\u0663", "1_0", "1.0",
                     "1e2"]),
)


@st.composite
def coloring_texts(draw):
    """Half plain texts (the JSON path's shape), half with any of the line parser's cases."""
    plain = draw(st.booleans())
    body = draw(st.lists(st.integers(0, 5).map(str) if plain else _COLOR_LINE, max_size=8))
    lines = [draw(st.sampled_from(["3", "6", "0", "03"] if plain else ["3", "6", "x", "-2", ""]))]
    eol = "\n" if plain else draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines + body) + draw(st.sampled_from(["", eol, eol + eol]))


def read_lines(n):
    return lambda text: graph_io._read_coloring_lines(text, n)


class TestColoringFastPath:
    @given(coloring_texts(), st.sampled_from([None, 0, 2, 4]))
    @settings(max_examples=300)
    def test_same_coloring_or_error_as_the_line_parser(self, text, n):
        expect = parse_outcome(read_lines(n), text)
        assert parse_outcome(lambda t: read_coloring(t, n=n), text) == expect
        assert parse_outcome(lambda t: read_coloring(t, n=n), text.encode()) == expect

    def test_json_path_matches_the_line_parser_on_random_plain_files(self, monkeypatch):
        rng = random.Random(5)
        files = [random_plain_coloring(rng) for _ in range(300)]
        expect = [read_lines(n)(text) for text, n in files]
        monkeypatch.setattr(graph_io, "_read_coloring_lines", refuse_line_parsing)
        assert [read_coloring(text, n=n) for text, n in files] == expect
        assert [read_coloring(text.encode(), n=n) for text, n in files] == expect
        assert read_coloring(files[0][0]) == expect[0]  # no count to check
        assert any(not text.endswith("\n") for text, _ in files)
        assert any(n == 0 for _, n in files) and any(n >= 500 for _, n in files)

    @pytest.mark.parametrize("text,n", [
        ("", None), ("\n", 0), ("3", 0), ("3\n", None),        # no colors, or not even k
        ("2\n0\n5\n", None), ("0\n0\n", 1),                 # a color outside [0, k)
        ("2\n0\n1\n", 3), ("2\n0\n1", 1),                   # the wrong count
        ("007\n1\n", 1), ("3\n\n1\n", 1), ("3\r\n1\r\n", 1),  # only the line parser reads
        ("3\n1\n" + "1" * 5000 + "\n", 2),                    # too many digits for JSON and int
    ])
    def test_texts_json_rejects_read_line_by_line(self, text, n):
        expect = parse_outcome(read_lines(n), text)
        assert parse_outcome(lambda t: read_coloring(t, n=n), text) == expect
