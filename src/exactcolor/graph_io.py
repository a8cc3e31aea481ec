"""Text formats for graphs and colorings.

EDGELIST: first line ``n m``, then m lines ``u v`` with 0-based endpoints.
DIMACS:   ``p edge n m`` header, ``e u v`` lines with 1-based endpoints,
          ``c ...`` comment lines ignored.

Both read CRLF or LF and write LF.  Vertex indices normalize to dense
0-based integers internally (DIMACS shifts by -1 on read, +1 on write).
Reading back a written graph reproduces it exactly.
"""

from __future__ import annotations

import json
import re

from .coloring import Coloring
from .errors import InconsistentHeaderError, ParseError
from .graphs import Graph, build_graph

EDGELIST = "edgelist"
DIMACS = "dimacs"


_DROP_DIGITS = str.maketrans("", "", "0123456789")
_FIRST_CHAR = re.compile(r"\S")


def _not_utf8(exc: UnicodeDecodeError) -> ParseError:
    return ParseError("not UTF-8 text", exc.object.count(b"\n", 0, exc.start) + 1)


def _to_text(data) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _not_utf8(exc) from None
    return data


def read_text(path: str) -> str:
    """A UTF-8 text file's contents (newlines read as LF); bad UTF-8 is a ParseError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise _not_utf8(exc) from None


def _lines(text: str):
    for i, raw in enumerate(text.split("\n"), start=1):
        yield i, raw.strip()


def _parse_edgelist(text: str) -> Graph:
    """A plain file as one JSON array; anything else, valid or not, line by line.

    A file is plain when, with its ASCII digits dropped, each line (LF only,
    the last one may lack it) is a single space, so every line is "a b".
    JSON reads its integers once the spaces and newlines become commas.  It
    rejects empty tokens and leading zeros, so such files go to the line
    parser and read as they always have, as does a file whose header's
    edge count does not match.
    """
    body = text.removesuffix("\n")
    if body.translate(_DROP_DIGITS) == " \n" * body.count("\n") + " ":
        try:
            values = json.loads("[" + body.replace(" ", ",").replace("\n", ",") + "]")
        except ValueError:
            pass
        else:
            if len(values) == 2 * values[1] + 2:
                it = iter(values)
                n, _ = next(it), next(it)
                return build_graph(n, zip(it, it))
    return _parse_edgelist_lines(text)


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
    """Parse a graph from str or UTF-8 bytes in the given format."""
    text = _to_text(data)
    if fmt == EDGELIST:
        return _parse_edgelist(text)
    if fmt == DIMACS:
        return _parse_dimacs(text)
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
    """Guess EDGELIST vs DIMACS from the first meaningful line."""
    first = _FIRST_CHAR.search(_to_text(data))
    return DIMACS if first and first.group() in ("p", "c", "e") else EDGELIST


def load_graph(path: str, fmt: str | None = None) -> Graph:
    data = read_text(path)
    return read_graph(data, fmt or sniff_format(data))


# ---------------------------------------------------------------------------
# Coloring files: one line "k", then one color index per vertex per line.
# ---------------------------------------------------------------------------

def read_coloring(data, n: int | None = None) -> Coloring:
    """Parse a coloring; when n is given the entry count must match it."""
    text = _to_text(data)
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
