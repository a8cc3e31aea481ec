"""Text formats for graphs and colorings.

EDGELIST: first line ``n m``, then m lines ``u v`` with 0-based endpoints.
DIMACS:   ``p edge n m`` header, ``e u v`` lines with 1-based endpoints,
          ``c ...`` comment lines ignored.

Both write LF.  Vertex indices normalize to dense 0-based integers
internally (DIMACS shifts by -1 on read, +1 on write).  Reading back a
written graph reproduces it exactly.

Files are read as bytes.  A plain file goes to ``json.loads`` undecoded;
any other is decoded as UTF-8 with LF, CRLF and lone CR read as LF, as a
text-mode ``open`` reads them.  A str reads its newlines the same way, so
a file, its bytes and its text always parse the same.
"""

from __future__ import annotations

import json
import re

from .coloring import Coloring
from .errors import InconsistentHeaderError, ParseError
from .graphs import Graph, build_graph

EDGELIST = "edgelist"
DIMACS = "dimacs"


_DIGITS = b"0123456789"
_TO_COMMAS = bytes.maketrans(b" \n", b",,")
# The UTF-8 form of every character str.isspace accepts (tests check the
# list against str.isspace), so bytes sniff as their text does undecoded.
# re compiles it on first use and caches it, so importing the module does not.
_LEADING_SPACE = (
    rb"(?:[\t-\r\x1c- ]|\xc2[\x85\xa0]|\xe1\x9a\x80"
    rb"|\xe2\x80[\x80-\x8a\xa8\xa9\xaf]|\xe2\x81\x9f|\xe3\x80\x80)*"
)


def _to_text(data) -> str:
    """str or bytes as a text-mode open reads a file holding them.

    That is UTF-8 with CRLF and lone CR read as LF.  Bad UTF-8 is a
    ParseError on the line of the first bad byte.
    """
    if isinstance(data, bytes):
        # CR is never part of a multi-byte UTF-8 sequence, so reading the
        # newlines first leaves the decoded text as it was and counts lines right.
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError("not UTF-8 text", data.count(b"\n", 0, exc.start) + 1) from None
    return data.replace("\r\n", "\n").replace("\r", "\n")


def read_bytes(path: str) -> bytes:
    """A file's contents, undecoded: the parsers decode what is not plain."""
    with open(path, "rb") as fh:
        return fh.read()


def _lines(text: str):
    for i, raw in enumerate(text.split("\n"), start=1):
        yield i, raw.strip()


def _plain_ints(data, line: bytes) -> list | None:
    """The integers of a plain file as one JSON array, else None.

    A file is plain when, with its ASCII digits dropped, each line (LF only,
    the last one may lack it) is `line` without its LF.  JSON reads its
    integers once the spaces and newlines become commas.  It rejects empty
    tokens and leading zeros, so such files give None and go to a line
    parser, as does a str that is not ASCII.
    """
    if isinstance(data, str):
        if not data.isascii():
            return None
        data = data.encode("ascii")
    body = data.removesuffix(b"\n")
    if body.translate(None, _DIGITS) != line * body.count(b"\n") + line[:-1]:
        return None
    try:
        return json.loads(b"[" + body.translate(_TO_COMMAS) + b"]")
    except ValueError:
        return None


def _parse_edgelist_lines(text: str) -> Graph:
    header = None
    edges = []
    for lineno, line in _lines(text):
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise ParseError("expected header 'n m'", lineno)
            try:
                header = (int(fields[0]), int(fields[1]))
            except ValueError:
                raise ParseError("non-integer in header", lineno) from None
            continue
        if len(fields) != 2:
            raise ParseError("expected edge line 'u v'", lineno)
        try:
            edges.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise ParseError("non-integer endpoint", lineno) from None
    if header is None:
        raise ParseError("missing header 'n m'", 1)
    n, m = header
    if len(edges) != m:
        raise InconsistentHeaderError(
            f"header declares {m} edges but {len(edges)} edge lines found", 1
        )
    return build_graph(n, edges)


def _parse_dimacs(text: str) -> Graph:
    header = None
    edges = []
    for lineno, line in _lines(text):
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if header is not None:
                raise ParseError("duplicate problem line", lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise ParseError("expected 'p edge n m'", lineno)
            try:
                header = (int(fields[2]), int(fields[3]))
            except ValueError:
                raise ParseError("non-integer in problem line", lineno) from None
        elif fields[0] == "e":
            if header is None:
                raise ParseError("edge before problem line", lineno)
            if len(fields) != 3:
                raise ParseError("expected 'e u v'", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError("non-integer endpoint", lineno) from None
            if u < 1 or v < 1:
                raise ParseError("DIMACS vertices are 1-based", lineno)
            if max(u, v) > header[0]:
                raise ParseError(f"vertex {max(u, v)} exceeds n = {header[0]}", lineno)
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"unknown line type {fields[0]!r}", lineno)
    if header is None:
        raise ParseError("missing problem line", 1)
    n, m = header
    if len(edges) != m:
        raise InconsistentHeaderError(
            f"problem line declares {m} edges but {len(edges)} found", 1
        )
    return build_graph(n, edges)


def read_graph(data, fmt: str = EDGELIST) -> Graph:
    """Parse a graph in the given format from str, or from bytes as load_graph reads a file.

    A plain EDGELIST file (_plain_ints: every line "a b") is read as one
    JSON array, unless its header's edge count does not match; anything
    else, valid or not, goes line by line.
    """
    if fmt == EDGELIST:
        values = _plain_ints(data, b" \n")
        if values is not None and len(values) == 2 * values[1] + 2:
            it = iter(values)
            del values  # the list and its ints go once build_graph has read the last edge
            n, _ = next(it), next(it)
            return build_graph(n, zip(it, it))
        return _parse_edgelist_lines(_to_text(data))
    if fmt == DIMACS:
        return _parse_dimacs(_to_text(data))
    raise ParseError(f"unknown format {fmt!r}", 1)


def write_graph(g: Graph, fmt: str = EDGELIST) -> str:
    """Serialize a graph; edges are listed sorted with u < v."""
    edges = g.edges()
    if fmt == EDGELIST:
        lines = [f"{g.n} {len(edges)}"]
        lines += [f"{u} {v}" for u, v in edges]
    elif fmt == DIMACS:
        lines = [f"p edge {g.n} {len(edges)}"]
        lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    else:
        raise ParseError(f"unknown format {fmt!r}", 1)
    return "\n".join(lines) + "\n"


def sniff_format(data) -> str:
    """Guess EDGELIST vs DIMACS from the first character that is not whitespace.

    Bytes are not decoded: only their leading whitespace is read.
    """
    if isinstance(data, bytes):
        start = re.match(_LEADING_SPACE, data).end()
        return DIMACS if data[start:start + 1] in (b"p", b"c", b"e") else EDGELIST
    return DIMACS if data.lstrip()[:1] in ("p", "c", "e") else EDGELIST


def load_graph(path: str, fmt: str | None = None) -> Graph:
    data = read_bytes(path)
    return read_graph(data, fmt or sniff_format(data))


# ---------------------------------------------------------------------------
# Coloring files: one line "k", then one color index per vertex per line.
# ---------------------------------------------------------------------------

def read_coloring(data, n: int | None = None) -> Coloring:
    """Parse a coloring from str or bytes (as read_graph); when n is given the entry count must match it.

    A plain file (_plain_ints: every line a bare non-negative integer) is
    read as one JSON array; any other file, or one whose count or colors do
    not fit, goes line by line, so every error keeps its message and line.
    """
    values = _plain_ints(data, b"\n")
    if values:
        k, *values = values
        if (n is None or len(values) == n) and (not values or max(values) < k):
            return Coloring(k, tuple(values))
    return _read_coloring_lines(_to_text(data), n)


def _read_coloring_lines(text: str, n: int | None) -> Coloring:
    values = []
    k = None
    for lineno, line in _lines(text):
        if not line or line.startswith("#"):
            continue
        try:
            value = int(line)
        except ValueError:
            raise ParseError("non-integer entry", lineno) from None
        if k is None:
            k = value
            if k < 0:
                raise ParseError("color count must be nonnegative", lineno)
        else:
            if not 0 <= value < k:
                raise ParseError(f"color {value} outside [0, {k})", lineno)
            values.append(value)
    if k is None:
        raise ParseError("empty coloring file", 1)
    if n is not None and len(values) != n:
        raise InconsistentHeaderError(
            f"coloring lists {len(values)} vertices but the graph has {n}", 1
        )
    return Coloring(k, tuple(values))


def write_coloring(c: Coloring) -> str:
    return "\n".join([str(c.k)] + [str(x) for x in c.assign]) + "\n"
