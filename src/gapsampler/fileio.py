"""File formats for the command line: points, graphs, samples, reports.

Points: one point per line, coordinates separated by whitespace or commas,
'#' starts a comment, blank lines ignored.  Graph: first non-comment line
"n m", then m lines "u v" or "u v w" with 0-based endpoints.  Sample: one
0-based index per line.

Reports are emitted as deterministic JSON: keys in insertion order, floats
rendered via repr-faithful %.17g so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import math
from typing import List, Optional, Sequence, Tuple

from .errors import GapError


def _data_lines(text: str) -> List[Tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _tokens(line: str) -> List[str]:
    return line.replace(",", " ").split()


def read_points(text: str) -> List[List[float]]:
    """Parse point-cloud text; raises on ragged rows or non-numeric fields."""
    points: List[List[float]] = []
    width: Optional[int] = None
    for lineno, line in _data_lines(text):
        try:
            row = [float(t) for t in _tokens(line)]
        except ValueError:
            raise GapError("malformed-points",
                           f"line {lineno}: non-numeric coordinate") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise GapError("malformed-points",
                           f"line {lineno}: expected {width} coordinates, "
                           f"got {len(row)}")
        points.append(row)
    if not points:
        raise GapError("malformed-points", "no points found")
    return points


def read_graph(text: str) -> Tuple[int, List[tuple], bool]:
    """Parse graph text into (n, edges, weighted).

    weighted is True iff any edge line carries a third field; mixing bare
    and weighted edge lines is rejected.
    """
    lines = _data_lines(text)
    if not lines:
        raise GapError("malformed-graph", "empty graph file")
    lineno, header = lines[0]
    head = _tokens(header)
    if len(head) != 2:
        raise GapError("malformed-graph",
                       f"line {lineno}: header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GapError("malformed-graph",
                       f"line {lineno}: header must be 'n m'") from None
    body = lines[1:]
    if len(body) != m:
        raise GapError("malformed-graph",
                       f"expected {m} edge lines, found {len(body)}")
    edges: List[tuple] = []
    weighted: Optional[bool] = None
    for lineno, line in body:
        toks = _tokens(line)
        if len(toks) not in (2, 3):
            raise GapError("malformed-graph",
                           f"line {lineno}: expected 'u v' or 'u v w'")
        try:
            u, v = int(toks[0]), int(toks[1])
            w = float(toks[2]) if len(toks) == 3 else None
        except ValueError:
            raise GapError("malformed-graph",
                           f"line {lineno}: non-numeric field") from None
        has_w = w is not None
        if weighted is None:
            weighted = has_w
        elif weighted != has_w:
            raise GapError("malformed-graph",
                           f"line {lineno}: mixed weighted and unweighted "
                           "edge lines")
        edges.append((u, v, w) if has_w else (u, v))
    return n, edges, bool(weighted)


def read_sample(text: str) -> List[int]:
    """Parse a sample file: one 0-based index per line."""
    indices = []
    for lineno, line in _data_lines(text):
        toks = _tokens(line)
        if len(toks) != 1:
            raise GapError("malformed-sample",
                           f"line {lineno}: expected one index")
        try:
            indices.append(int(toks[0]))
        except ValueError:
            raise GapError("malformed-sample",
                           f"line {lineno}: non-integer index") from None
    if not indices:
        raise GapError("malformed-sample", "no indices found")
    return indices


# ---------------------------------------------------------------------------
# deterministic JSON


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise GapError("non-finite-report", f"cannot serialize {x!r}")
    s = format(x, ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def _emit(value, indent: int, out: List[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        items = list(value.items())
        for pos, (key, val) in enumerate(items):
            out.append(f'{pad}  "{key}": ')
            _emit(val, indent + 1, out)
            out.append(",\n" if pos < len(items) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            out.append("[]")
            return
        if all(not isinstance(v, (dict, list, tuple)) for v in seq):
            out.append("[" + ", ".join(_scalar(v) for v in seq) + "]")
            return
        out.append("[\n")
        for pos, val in enumerate(seq):
            out.append(pad + "  ")
            _emit(val, indent + 1, out)
            out.append(",\n" if pos < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        out.append(_scalar(value))


def _scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    raise GapError("non-serializable-report",
                   f"cannot serialize {type(value).__name__}")


def dumps_report(report: dict) -> str:
    """Render a report dict as deterministic JSON text (trailing newline)."""
    out: List[str] = []
    _emit(report, 0, out)
    return "".join(out) + "\n"
