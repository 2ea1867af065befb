"""Plain-text matrix/graph files and JSON run reports.

Matrix files: a header line "rows cols", then one line per row of
space-separated floats in shortest round-trip representation, so
parse(serialize(M)) reproduces M bit for bit.  Graph files: a header line
"n m" with n <= randgen.MAX_GRAPH_VERTICES, then m lines "u v" with
0 <= u < v < n in lexicographic order.
Reports are JSON documents carrying the tool version, the invoked command,
the seed, the full parameter set, and a results object — everything needed
to reproduce the run.  Each part of ``results`` is ``dataclasses.asdict`` of
a frozen result dataclass, except a witness, whose array vector goes through
`witness_dict`.  Those dataclasses' fields are therefore the report format,
and diagnostics such as timings or fallback counts must stay out of them.
"""

import json
import warnings
from array import array
from dataclasses import asdict

import numpy as np

from .linalg import as_matrix
from .randgen import MAX_GRAPH_VERTICES, Graph

VERSION = "0.1.0"


class FileFormatError(ValueError):
    """Raised when an input file does not match its documented format."""


def _fail(path, lineno, msg):
    raise FileFormatError(f"{path}:{lineno}: {msg}")


# Values formatted per block by _write_table: whole rows, at least one.
_WRITE_BLOCK = 1 << 14


def _write_table(path, header, table):
    """Two header integers, then one line of space-separated reprs per row of
    the 2-D array ``table``, formatted a block of rows at a time."""
    width = table.shape[1]
    step = max(1, _WRITE_BLOCK // width)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{header[0]} {header[1]}\n")
        for start in range(0, len(table), step):
            it = map(repr, table[start : start + step].ravel().tolist())
            fh.write("\n".join(map(" ".join, zip(*[it] * width))) + "\n")


def _parse_lines(path, lines, width, parse):
    """The values of ``lines`` (file lines 2, 3, ...) as a (len(lines),
    width) array, each line checked before its values are stored; the first
    bad line raises its ``path:line:`` message."""
    values = array("d" if parse is float else "q")
    for lineno, line in enumerate(lines, start=2):
        tokens = line.split()
        if len(tokens) != width:
            _fail(path, lineno, f"expected {width} values, got {len(tokens)}")
        try:
            values.extend(map(parse, tokens))
        except (ValueError, OverflowError):  # not a number, or beyond int64
            _fail(path, lineno, f"invalid {parse.__name__} value in {line!r}")
    return np.asarray(values).reshape(-1, width)  # a view: a copy doubles the peak


def _read_table(path, header, shape, parse):
    """Header integers a, b and the rows of a table file as a 2-D float64 or
    int64 array (``parse`` is float or int).  ``shape(path, a, b)`` checks the
    header and gives (rows, width).  Values are allocated only for the lines
    present, never from the header's counts.

    The data rows are parsed by one ``np.loadtxt`` call.  Its result is kept
    only when it has exactly ``rows`` rows of ``width`` values and it neither
    raised nor warned; anything else re-reads the rows with
    :func:`_parse_lines`, which names the first bad line or accepts what
    Python's ``int``/``float`` accept and ``loadtxt`` refuses (``1_000``).
    ``loadtxt`` skips blank lines, which the shape check catches."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    try:
        a, b = map(int, lines[0].split())
    except ValueError:
        _fail(path, 1, f"expected header '{header}' of two integers, got {lines[0]!r}")
    rows, width = shape(path, a, b)
    if len(lines) < rows + 1:
        _fail(path, len(lines), f"expected {rows} data rows, file ends early")
    data = lines[1 : rows + 1]
    table = None
    if rows > 0:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(data, dtype=np.float64 if parse is float else np.int64,
                                   ndmin=2, comments=None)
        except (ValueError, OverflowError, Warning):  # the line loop decides
            pass
    if table is None or table.shape != (rows, width):
        table = _parse_lines(path, data, width, parse)
    for lineno, line in enumerate(lines[rows + 1 :], start=rows + 2):
        if line.strip():
            _fail(path, lineno, f"unexpected trailing content {line!r}")
    return a, b, table


def write_matrix_file(path, m):
    """Write ``m``; a matrix the reader would refuse (not 2-D, empty or with
    non-finite entries) raises ValueError before the file is opened."""
    a = as_matrix(m, "matrix")
    _write_table(path, a.shape, a)


def _matrix_shape(path, rows, cols):
    if rows < 1 or cols < 1:
        _fail(path, 1, f"dimensions must be positive, got {rows}x{cols}")
    return rows, cols


def read_matrix_file(path):
    out = _read_table(path, "rows cols", _matrix_shape, float)[2]
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if len(bad):
        _fail(path, int(bad[0]) + 2, "matrix contains non-finite entries")
    return out


def write_graph_file(path, g):
    edges = g.edges()
    _write_table(path, (g.n, len(edges)), edges)


def _graph_shape(path, n, m):
    if n < 1 or m < 0:
        _fail(path, 1, f"invalid counts n={n}, m={m}")
    if n > MAX_GRAPH_VERTICES:
        _fail(path, 1, f"n={n} exceeds the cap of {MAX_GRAPH_VERTICES} vertices")
    return m, 2


def read_graph_file(path):
    n, _, edges = _read_table(path, "n m", _graph_shape, int)
    u, v = edges.T
    in_range = (0 <= u) & (u < v) & (v < n)
    # u*n + v ranks in-range rows; keys of out-of-range rows never decide
    ascending = np.diff(u * n + v, prepend=-1) > 0
    bad = np.flatnonzero(~(in_range & ascending))
    if len(bad):
        i = int(bad[0])
        if not in_range[i]:
            _fail(path, i + 2, f"edge ({u[i]}, {v[i]}) violates 0 <= u < v < n={n}")
        _fail(path, i + 2, f"edges out of order or duplicated at ({u[i]}, {v[i]})")
    return Graph.from_edges(n, edges)


def witness_dict(witness):
    return {
        "subset": [int(i) for i in witness.subset],
        "vector": [float(x) for x in witness.vector],
        "deviation": float(witness.deviation),
    }


def write_report(path, command, seed, params, results, wall_time_ns, diagnostics=None):
    """Write a JSON run report.  ``diagnostics``, when given, becomes a
    top-level key beside ``results``, whose bytes it never changes."""
    doc = {
        "tool_version": VERSION,
        "command": command,
        "seed": None if seed is None else asdict(seed),
        "params": params,
        "results": results,
        "wall_time_ns": int(wall_time_ns),
    }
    if diagnostics is not None:
        doc["diagnostics"] = diagnostics
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: invalid report JSON: {exc}") from exc


def results_bytes(report_doc):
    """Canonical bytes of a report's results section, for determinism checks."""
    return json.dumps(report_doc["results"], sort_keys=True).encode("utf-8")
