"""Plain-text matrix/graph files and JSON run reports.

Matrix files: a header line "rows cols", then one line per row of
space-separated floats in shortest round-trip representation, so
parse(serialize(M)) reproduces M bit for bit.  Graph files: a header line
"n m", then m lines "u v" with 0 <= u < v < n in lexicographic order.
Reports are JSON documents carrying the tool version, the invoked command,
the seed, the full parameter set, and a results object — everything needed
to reproduce the run.
"""

import json
from dataclasses import asdict

import numpy as np

from .linalg import as_matrix
from .randgen import Graph, Seed

VERSION = "0.1.0"


class FileFormatError(ValueError):
    """Raised when an input file does not match its documented format."""


def _fail(path, lineno, msg):
    raise FileFormatError(f"{path}:{lineno}: {msg}")


def write_matrix_file(path, m):
    """Write ``m``; a matrix the reader would refuse (not 2-D, empty or with
    non-finite entries) raises ValueError before the file is opened."""
    a = as_matrix(m, "matrix")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for row in a:
            fh.write(" ".join(repr(float(v)) for v in row))
            fh.write("\n")


def read_matrix_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    head = lines[0].split() if lines else []
    if len(head) != 2:
        _fail(path, 1, f"expected header 'rows cols', got {lines[0]!r}")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError:
        _fail(path, 1, f"non-integer header {lines[0]!r}")
    if rows < 1 or cols < 1:
        _fail(path, 1, f"dimensions must be positive, got {rows}x{cols}")
    if len(lines) < rows + 1:
        _fail(path, len(lines), f"expected {rows} data rows, file ends early")
    out = np.empty((rows, cols))
    for i in range(rows):
        tokens = lines[1 + i].split()
        if len(tokens) != cols:
            _fail(path, 2 + i, f"expected {cols} values, got {len(tokens)}")
        try:
            out[i] = [float(t) for t in tokens]
        except ValueError:
            _fail(path, 2 + i, "unparseable real value")
    for extra, line in enumerate(lines[rows + 1 :], start=rows + 2):
        if line.strip():
            _fail(path, extra, f"unexpected trailing content {line!r}")
    if not np.all(np.isfinite(out)):
        _fail(path, 1, "matrix contains non-finite entries")
    return out


def write_graph_file(path, g):
    edges = g.edges()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{g.n} {len(edges)}\n")
        for u, v in edges:
            fh.write(f"{u} {v}\n")


def read_graph_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    head = lines[0].split() if lines else []
    if len(head) != 2:
        _fail(path, 1, f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        _fail(path, 1, f"non-integer header {lines[0]!r}")
    if n < 1 or m < 0:
        _fail(path, 1, f"invalid counts n={n}, m={m}")
    if len(lines) < m + 1:
        _fail(path, len(lines), f"expected {m} edge rows, file ends early")
    edges = []
    prev = None
    for i in range(m):
        tokens = lines[1 + i].split()
        if len(tokens) != 2:
            _fail(path, 2 + i, f"expected 'u v', got {lines[1 + i]!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            _fail(path, 2 + i, f"non-integer endpoints {lines[1 + i]!r}")
        if not 0 <= u < v < n:
            _fail(path, 2 + i, f"edge ({u}, {v}) violates 0 <= u < v < n={n}")
        if prev is not None and (u, v) <= prev:
            _fail(path, 2 + i, f"edges out of order or duplicated at ({u}, {v})")
        prev = (u, v)
        edges.append((u, v))
    for extra, line in enumerate(lines[m + 1 :], start=m + 2):
        if line.strip():
            _fail(path, extra, f"unexpected trailing content {line!r}")
    return Graph.from_edges(n, edges)


def seed_dict(seed):
    if seed is None:
        return None
    return {"value": int(seed.value), "stream": int(seed.stream)}


def rip_report_dict(report):
    return {
        "order": report.order,
        "value": float(report.value),
        "direction": report.direction,
        "method": report.method,
        "subsets_examined": report.subsets_examined,
    }


def witness_dict(witness):
    return {
        "subset": [int(i) for i in witness.subset],
        "vector": [float(x) for x in witness.vector],
        "deviation": float(witness.deviation),
    }


def certificate_dict(cert):
    return {
        "probe_order": cert.probe_order,
        "probe_parameter": float(cert.probe_parameter),
        "target_parameter": float(cert.target_parameter),
        "max_certified_order": cert.max_certified_order,
    }


def experiment_dict(report):
    return {
        "n": report.n,
        "k": report.k,
        "clique_size": report.clique_size,
        "c": float(report.c),
        "delta": float(report.delta),
        "threshold": float(report.threshold),
        "null_statistic": report.null_statistic,
        "rect_cols": report.rect_cols,
        "base_seed": seed_dict(report.base_seed),
        "trials": [
            {
                "seed": seed_dict(t.seed),
                "arm": t.arm,
                "statistic": float(t.statistic),
                "decision": t.decision,
            }
            for t in report.trials
        ],
        "separation": asdict(report.separation),
    }


def write_report(path, command, seed, params, results, wall_time_ns):
    doc = {
        "tool_version": VERSION,
        "command": command,
        "seed": seed_dict(seed),
        "params": params,
        "results": results,
        "wall_time_ns": int(wall_time_ns),
    }
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
