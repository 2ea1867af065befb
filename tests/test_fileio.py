import json
import math
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from riplab import fileio
from riplab.certify import LazyCertificate, RipReport, Witness, exact_rip
from riplab.fileio import (
    MAX_GRAPH_VERTICES,
    VERSION,
    FileFormatError,
    read_graph_file,
    read_matrix_file,
    read_report,
    results_bytes,
    witness_dict,
    write_graph_file,
    write_matrix_file,
    write_report,
)
from riplab.randgen import (
    Graph,
    Seed,
    gen_bernoulli_sensing,
    gen_gnp_half,
    gen_model_a,
    gen_model_b,
)
from riplab.reduction import cholesky_reduce, run_distinguishing_experiment


def test_matrix_roundtrip_tricky_floats(tmp_path):
    m = np.array(
        [
            [0.1, -0.0, 1e-308, np.pi],
            [2.0 / 3.0, 1e308, -1.5e-17, 123456789.123456789],
        ]
    )
    p = tmp_path / "m.txt"
    write_matrix_file(p, m)
    back = read_matrix_file(p)
    assert back.dtype == np.float64
    assert np.array_equal(back, m)
    # -0.0 keeps its sign bit through the file
    assert np.signbit(back[0, 1])


def test_matrix_roundtrip_random(tmp_path):
    p = tmp_path / "m.txt"
    for s in range(200):
        rng = np.random.default_rng(s)
        m = rng.standard_normal((rng.integers(1, 6), rng.integers(1, 6)))
        write_matrix_file(p, m)
        assert np.array_equal(read_matrix_file(p), m)
    for s in range(200):
        phi = gen_bernoulli_sensing(5, 8, Seed(s))
        write_matrix_file(p, phi)
        assert np.array_equal(read_matrix_file(p), phi)


def test_matrix_file_layout(tmp_path):
    p = tmp_path / "m.txt"
    write_matrix_file(p, np.array([[1.0, 0.5]]))
    assert p.read_text() == "1 2\n1.0 0.5\n"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrix_write_refuses_non_finite_before_opening(bad, tmp_path):
    p = tmp_path / "m.txt"
    m = np.eye(2)
    m[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        write_matrix_file(p, m)
    assert not p.exists()
    for shape in ((3,), (0, 2)):  # not 2-D, empty: the reader refuses both
        with pytest.raises(ValueError):
            write_matrix_file(p, np.ones(shape))
        assert not p.exists()


def test_matrix_read_errors(tmp_path):
    cases = [
        "",  # no header
        "2\n1.0\n2.0\n",  # one-token header
        "a b\n",  # non-integer header
        "0 3\n",  # nonpositive dims
        "2 2\n1.0 2.0\n",  # missing row
        "1 2\n1.0\n",  # short row
        "1 2\n1.0 2.0 3.0\n",  # long row
        "1 1\nfoo\n",  # unparseable value
        "1 1\n1.0\ntrailing\n",  # junk after data
        "1 1\nnan\n",  # non-finite
        "1 1\ninf\n",
    ]
    for i, text in enumerate(cases):
        p = tmp_path / f"bad{i}.txt"
        p.write_text(text)
        with pytest.raises(FileFormatError):
            read_matrix_file(p)


def test_matrix_error_names_position(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 2\n1.0 2.0\n3.0\n")
    with pytest.raises(FileFormatError, match=r"bad\.txt:3: expected 2 values"):
        read_matrix_file(p)
    p.write_text("2 2\n1.0 2.0\n3.0 nan\n")
    with pytest.raises(FileFormatError, match=r"bad\.txt:3: matrix contains non-finite"):
        read_matrix_file(p)


def test_graph_roundtrip(tmp_path):
    p = tmp_path / "g.txt"
    g = Graph.from_edges(5, [(0, 3), (1, 2), (0, 1)])
    write_graph_file(p, g)
    assert p.read_text() == "5 3\n0 1\n0 3\n1 2\n"
    assert read_graph_file(p) == g


def test_graph_roundtrip_random(tmp_path):
    p = tmp_path / "g.txt"
    for s in range(200):
        g = gen_gnp_half(12, Seed(s))
        write_graph_file(p, g)
        assert read_graph_file(p) == g


def test_graph_roundtrip_edgeless(tmp_path):
    p = tmp_path / "g.txt"
    write_graph_file(p, Graph(4))
    assert p.read_text() == "4 0\n"
    back = read_graph_file(p)
    assert back.n == 4 and len(back.edges()) == 0


def _reference_table(header, rows):
    # the file format spelled out row by row
    return f"{header[0]} {header[1]}\n" + "".join(
        " ".join(repr(x) for x in row) + "\n" for row in rows
    )


def test_writers_match_a_per_line_reference(tmp_path):
    """Tables of more values than one write block (2**13), and rows wider
    than one, are written with the bytes of a row-by-row formatter."""
    p = tmp_path / "t.txt"
    m = gen_bernoulli_sensing(300, 300, Seed(4)) * np.linspace(0.5, 3.0, 300)
    m[0, :4] = [-0.0, 5e-324, 1e308, 0.1]
    # a reduction factor: half its entries are zeros; its own are all +0.0
    factor = cholesky_reduce(gen_gnp_half(150, Seed(6)))
    below = np.tril_indices(150, -1)
    factor[below[0][::7], below[1][::7]] = -0.0
    for a in (m, gen_bernoulli_sensing(2, 20000, Seed(5)), factor):
        write_matrix_file(p, a)
        assert p.read_text() == _reference_table(a.shape, a.tolist())
        assert np.array_equal(read_matrix_file(p), a)
    n = 300
    for g in (Graph(n, ~np.eye(n, dtype=bool)), gen_gnp_half(n, Seed(4)), Graph(n)):
        write_graph_file(p, g)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if g.adj[u, v]]
        assert p.read_text() == _reference_table((n, len(edges)), edges)
        e = g.edges()
        assert e.dtype == np.int64 and e.shape == (len(edges), 2)
        assert Graph.from_edges(n, e) == g
    assert p.read_text() == f"{n} 0\n"  # an edgeless graph writes its header only
    # vertex ids at every digit-width edge up to the cap, through the table
    # writer and reader (a Graph of 16384 vertices would hold a 256 MB adjacency)
    ids = [0, 9, 10, 99, 100, 9999, 10000, MAX_GRAPH_VERTICES - 1]
    edges = np.array([(u, v) for u in ids for v in ids if u < v], dtype=np.int64)
    header = (MAX_GRAPH_VERTICES, len(edges))
    fileio._write_table(p, header, edges)
    assert p.read_text() == _reference_table(header, edges.tolist())
    back = fileio._read_table(p, "n m", fileio._graph_shape, int)
    assert back[:2] == header and np.array_equal(back[2], edges)


def _float_families():
    """Float64 values at the edges of ``repr``'s formats and of the exact
    digit path, each with both signs."""
    rng = np.random.default_rng(18)
    ints = np.concatenate([np.arange(0, 1001), 2**53 + np.arange(-1000, 1001),
                           rng.integers(0, 2**62, 2000)])
    short = [float(f"{x:.{d}g}") for d in range(1, 18)
             for x in rng.standard_normal(200) * 10.0 ** rng.integers(-6, 18, 200)]
    edges = np.array([10.0**k for k in range(-8, 24)] + [2.0**k for k in range(-1074, 1024)]
                     + [1e-4, 1e-5, 1e15, 1e16, 1e17, 2.0**-13, 2.0**53, 2.0**54])
    near = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf),
                           np.nextafter(np.nextafter(edges, 0), 0)])
    tiny = np.concatenate([rng.integers(1, 2**52, 1000, dtype=np.uint64),
                           np.array([1, 2**52 - 1], np.uint64)]).view(np.float64)  # subnormals
    families = {"zeros": [0.0], "integers": ints.astype(np.float64), "short": short,
                "powers and neighbours": near, "subnormals": tiny, "ties": _ties()}
    return {k: np.concatenate([np.asarray(v), -np.asarray(v)]) for k, v in families.items()}


def _ties():
    """Floats whose scaled value lies exactly halfway between the two
    nearest candidates of the fewest digits: k + 0.25 and k + 0.75 in
    [2**49, 2**51), where repr breaks the tie."""
    k = np.concatenate([2.0**49 + np.arange(500), 2.0**50 + np.arange(500), 2.0**51 - 500 + np.arange(500)])
    return np.concatenate([k + 0.25, k + 0.75])


def _first_difference(got, want):
    """None if the texts are equal, else the first line where they differ
    and its first differing tokens: a short message for a large file."""
    if got == want:
        return None
    for lineno, (g, w) in enumerate(zip(got.split("\n"), want.split("\n")), start=1):
        if g != w:
            return lineno, [(a, b) for a, b in zip(g.split(" "), w.split(" ")) if a != b][:3]
    return "lengths differ", len(got), len(want)


def test_digit_tables_hold_their_ascii_digits():
    """The writer's digit words, built by integer arithmetic, hold the bytes
    of "000000dd" and "dddd", little-endian, for every index."""
    assert fileio._HEAD.dtype == np.uint64 and fileio._QUADS.dtype == np.uint32
    assert fileio._HEAD.tolist() == [int.from_bytes(b"000000%02d" % i, "little") for i in range(100)]
    assert fileio._QUADS.tolist() == [int.from_bytes(b"%04d" % i, "little") for i in range(10000)]


def test_float_writer_matches_repr(tmp_path):
    """Every token equals ``repr``: 10**6 random finite bit patterns, both
    signs and every exponent, and families at the format edges."""
    p = tmp_path / "m.txt"
    bits = np.random.default_rng(1018).integers(0, 2**64, 1_050_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][:1_000_000]
    assert len(values) == 1_000_000 and np.unique(np.abs(values).view(np.uint64) >> np.uint64(52)).size == 2047
    m = values.reshape(500, 2000)
    write_matrix_file(p, m)
    assert _first_difference(p.read_text(), _reference_table(m.shape, m.tolist())) is None
    assert fileio._round_trip_digits(_ties().view(np.uint64))[2].all()
    for name, family in _float_families().items():
        write_matrix_file(p, family[None, :])
        assert _first_difference(p.read_text(), _reference_table((1, len(family)), [family.tolist()])) is None, name


def test_repr_fallback_stays_narrow(tmp_path, monkeypatch):
    """At most 0.1% of a reduction factor's or a Bernoulli matrix's values
    take the per-value ``repr`` fallback; the rest take exact digits."""
    reached = []
    fallback = fileio._repr_tokens
    monkeypatch.setattr(fileio, "_repr_tokens", lambda v: reached.append(len(v)) or fallback(v))
    p = tmp_path / "m.txt"
    factor = cholesky_reduce(gen_gnp_half(200, Seed(7)))
    for a in (factor, gen_bernoulli_sensing(128, 200, Seed(8)), gen_bernoulli_sensing(64, 1024, Seed(9))):
        reached.clear()
        write_matrix_file(p, a)
        assert sum(reached) <= a.size / 1000
        assert np.array_equal(read_matrix_file(p), a)


def test_round_trip_digits_returns_outside_its_domain():
    """Zeros, subnormals and binary exponents outside [-13, 53], which
    ``_float_spans`` sends to ``repr``, still return at once: there C = 0,
    so the rounding interval is empty, and no value reaches the loop that
    counts zero digits.  |x| stays below 2**64, where the uint64 cast holds."""
    values = np.array([0.0, -0.0, 5e-324, 3 * 2.0**-1074, 2.0**-1022, 2.0**-20, 2.0**-14, 1e-5,
                       -3e-6, -1e-300, 2.0**54, 2.0**60, -(2.0**63.5)])
    with np.errstate(all="raise"):
        w, j, tie = fileio._round_trip_digits(values.view(np.uint64))
    assert j.tolist() == [0] * len(values) and not tie.any()
    assert w.tolist() == [int(abs(x)) for x in values.tolist()]


_BAD_GRAPHS = [
    "",  # no header
    "3\n",
    "x y\n",
    "0 0\n",  # no vertices
    "3 -1\n",
    "3 2\n0 1\n",  # missing edge row
    "3 1\n0\n",  # malformed edge
    "3 1\na b\n",
    "3 1\n1 0\n",  # u >= v
    "3 1\n0 0\n",  # self-loop
    "3 1\n0 5\n",  # out of range
    "3 2\n0 2\n0 1\n",  # out of order
    "3 2\n0 1\n0 1\n",  # duplicate
    "3 1\n0 1\nextra\n",  # trailing junk
]


def test_graph_read_errors(tmp_path):
    for i, text in enumerate(_BAD_GRAPHS):
        p = tmp_path / f"bad{i}.txt"
        p.write_text(text)
        with pytest.raises(FileFormatError):
            read_graph_file(p)


def test_graph_error_names_position(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("4 2\n0 2\n0 1\n")
    with pytest.raises(FileFormatError, match=r"bad\.txt:3: edges out of order"):
        read_graph_file(p)


def test_graph_read_limits(tmp_path):
    p = tmp_path / "g.txt"
    cases = [
        (f"{MAX_GRAPH_VERTICES + 1} 0\n", r":1: n=16385 exceeds the cap"),
        ("3 1\n0 99999999999999999999\n", r":2: invalid int value in '0 99999999999999999999'"),
        ("3 2\n0 1\n-99999999999999999999 2\n", r":3: invalid int value in '-99999"),
        ("4 3\n0 1\n1 2\n1 2\n", r":4: edges out of order or duplicated at \(1, 2\)"),
        ("4 3\n0 1\n2 1\n0 3\n", r":3: edge \(2, 1\) violates 0 <= u < v < n=4"),
        ("4 3\n0 3\n0 1\n2 9\n", r":3: edges out of order"),  # first bad row wins
        ("4 2\n0 1\n0 2 3\n", r":3: expected 2 values, got 3"),
        ("4 1\n0 1.5\n", r":2: invalid int value in '0 1.5'"),
    ]
    for text, msg in cases:
        p.write_text(text)
        with pytest.raises(FileFormatError, match=msg):
            read_graph_file(p)


def test_block_seams_change_no_byte(tmp_path, monkeypatch):
    """With write blocks of 7 values and read blocks of 16 bytes, a seam
    falls every row or every few tokens: a reduction factor, a Bernoulli
    matrix and a G(120, 1/2) graph still write the bytes of a row-by-row
    formatter and read back identical, and bad graph files keep the
    messages they give at the usual block sizes."""
    p = tmp_path / "t.txt"
    want = {}
    for i, text in enumerate(_BAD_GRAPHS):
        (tmp_path / f"bad{i}.txt").write_text(text)
        want[i] = _read_outcome(read_graph_file, tmp_path / f"bad{i}.txt")
    monkeypatch.setattr(fileio, "_WRITE_BLOCK", 7)
    monkeypatch.setattr(fileio, "_READ_BLOCK", 16)
    for a in (cholesky_reduce(gen_gnp_half(120, Seed(3))), gen_bernoulli_sensing(30, 120, Seed(3))):
        write_matrix_file(p, a)
        assert p.read_text() == _reference_table(a.shape, a.tolist())
        assert np.array_equal(read_matrix_file(p), a)
    g = gen_gnp_half(120, Seed(3))
    write_graph_file(p, g)
    assert p.read_text() == _reference_table((g.n, len(g.edges())), g.edges().tolist())
    assert read_graph_file(p) == g
    for i in range(len(_BAD_GRAPHS)):
        assert _read_outcome(read_graph_file, tmp_path / f"bad{i}.txt") == want[i]
        assert isinstance(want[i], str)


def _first_edge_error(n, edges):
    """(line, message) of the first bad edge row by the per-edge rules, or None."""
    prev = None
    for i, (u, v) in enumerate(edges):
        if not 0 <= u < v < n:
            return i + 2, f"edge ({u}, {v}) violates 0 <= u < v < n={n}"
        if prev is not None and (u, v) <= prev:
            return i + 2, f"edges out of order or duplicated at ({u}, {v})"
        prev = (u, v)
    return None


def _inject_edge_faults(rng, n, edges):
    """``edges`` with up to two rows replaced by ones the edge checks refuse."""
    for _ in range(int(rng.integers(0, 3))):
        if not edges:
            break
        i = int(rng.integers(len(edges)))
        u, v = edges[i]
        edges[i] = [(v, u), (u, u), (u, n), (-1, v), (u + 2**61, v),  # u * n wraps
                    edges[i - 1], (u + 1, v)][int(rng.integers(7))]
    return edges


def test_graph_edge_checks_match_per_edge_rules(tmp_path):
    """The array checks report the same first bad row as checking edge by
    edge, for edge lists with injected faults."""
    p = tmp_path / "g.txt"
    faults = 0
    for s in range(300):
        rng = np.random.default_rng(s)
        n = int(rng.integers(2, 9))
        g = gen_gnp_half(n, Seed(s))
        edges = _inject_edge_faults(rng, n, [tuple(e) for e in g.edges()])
        p.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        want = _first_edge_error(n, edges)
        if want is None:
            assert read_graph_file(p).edges().tolist() == [list(e) for e in edges]
            continue
        faults += 1
        with pytest.raises(FileFormatError) as err:
            read_graph_file(p)
        assert str(err.value) == f"{p}:{want[0]}: {want[1]}"
    assert faults > 100


def _read_outcome(read, p):
    """What ``read`` makes of file ``p``: the message of its FileFormatError,
    or the dtype, shape and bytes of the array it gives."""
    try:
        out = read(p)
    except FileFormatError as exc:
        return str(exc)
    a = out.edges() if isinstance(out, Graph) else out
    return a.dtype, a.shape, a.tobytes()


def test_bulk_parse_divergences_keep_the_line_loop_outcome(tmp_path):
    """Where the byte parsers and Python's int/float disagree, a file reads
    to the array or the message of the line-by-line reader."""
    p = tmp_path / "t.txt"
    graph_errors = [
        ("3 2\n0 1\n\n0 2\n", "3: expected 2 values, got 0"),  # a blank line inside the data
        ("3 2\n0 1\n \t \n", "3: expected 2 values, got 0"),
        ("3 2\n\n0 1\n", "2: expected 2 values, got 0"),
        ("3 2\n0 1\x0b0 2\n\n", "2: expected 2 values, got 4"),  # one row of 4
        ("3 1\n0 1.0\n", "2: invalid int value in '0 1.0'"),
        ("3 1\n0 9223372036854775808\n", "2: invalid int value in '0 9223372036854775808'"),
        ("3 1\n-9223372036854775809 1\n", "2: invalid int value in '-9223372036854775809 1'"),
        ("3 1\n0 9223372036854775807\n",
         "2: edge (0, 9223372036854775807) violates 0 <= u < v < n=3"),
        ("3 1\n0 \uff10\n", "2: edge (0, 0) violates 0 <= u < v < n=3"),  # fullwidth 0
    ]
    for text, msg in graph_errors:
        p.write_text(text, encoding="utf-8")
        assert _read_outcome(read_graph_file, p) == f"{p}:{msg}"
    for text in ("2 2\n1.0 2.0\n\n3.0 4.0\n", "2 2\n1.0 2.0\n\t\n"):
        p.write_text(text, encoding="utf-8")
        assert _read_outcome(read_matrix_file, p) == f"{p}:3: expected 2 values, got 0"
    graphs = [
        ("1001 2\n0 1_000\n1 \uff12\n", [[0, 1000], [1, 2]]),  # Python's int only
        ("3 2\n0\t1\n0\x0b2\n", [[0, 1], [0, 2]]),
    ]
    for text, edges in graphs:
        p.write_text(text, encoding="utf-8")
        assert read_graph_file(p).edges().tolist() == edges
    p.write_text("1 3\n1_0.5\t-2\x0b\uff13\n", encoding="utf-8")
    assert read_matrix_file(p).tolist() == [[10.5, -2.0, 3.0]]


def test_all_blank_data_region_prints_only_the_error(tmp_path):
    """A data region of blank lines gives no data to parse in bulk; the
    reader's message is all that reaches stderr."""
    g = tmp_path / "g.txt"
    g.write_text("3 2\n\n \n")
    r = subprocess.run(
        [sys.executable, "-W", "default", "-m", "riplab.cli", "refute",
         "--graph", str(g), "--k", "2"],
        capture_output=True, text=True,
    )
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == f"error: {g}:2: expected 2 values, got 0\n"


_TOKEN_FAULTS = ["1_0", "\uff11", "1.0", "x", "", "9223372036854775808", "1e3", "nan", "-0"]
_SEPARATORS = [" ", "\t", "\x0b", "\x0c", "\x85", "\u3000", "  "]


def _inject_text_faults(rng, lines):
    """``lines`` with up to two token, separator or blank-line faults."""
    for _ in range(int(rng.integers(0, 3))):
        i = int(rng.integers(len(lines)))
        kind = int(rng.integers(4))
        if kind == 0:  # one token replaced
            tokens = lines[i].split(" ")
            j = int(rng.integers(len(tokens)))
            tokens[j] = _TOKEN_FAULTS[int(rng.integers(len(_TOKEN_FAULTS)))]
            lines[i] = " ".join(tokens)
        elif kind == 1:  # other whitespace between values
            sep = _SEPARATORS[int(rng.integers(len(_SEPARATORS)))]
            lines[i] = lines[i].replace(" ", sep)
        elif kind == 2:  # a blank or whitespace-only line
            lines.insert(i, ["", " ", "\t"][int(rng.integers(3))])
        else:  # a line joined to the next
            lines[i : i + 2] = [" ".join(lines[i : i + 2])]
    return lines


_BERNOULLI_TOKEN = "0.10206207261596577"  # 1/sqrt(96)
_ROW = " ".join(repr(0.1 + i / 7) for i in range(4000)) + "\n"  # longer than a block

# Faulty and edge-case table files, their reader, and whether the line loop
# reads them.  It reads every file whose data its byte parser refuses: every
# float file whose tokens are not all t or -t for one token t, and every
# graph file that is not single-spaced digits; a CRLF file is decoded as text
# mode reads it and then parsed as bytes, and trailing text follows good
# data.  A float file whose every token is t or -t takes the ±t tier.
_BYTE_PARSER_FAULTS = [
    (read_graph_file, "3 3\n0\t1\n0 2\n1 2\n", True),  # tab
    (read_graph_file, "3 3\r\n0 1\r\n0 2\r\n1 2\r\n", False),  # CRLF
    (read_graph_file, "3 3\n0 1\n0  2\n1 2\n", True),  # double space
    (read_graph_file, "3 3\n 0 1\n0 2\n1 2\n", True),  # leading space
    (read_graph_file, "3 3\n0 1\n0 2\n1 2 \n", True),  # trailing space
    (read_graph_file, "8 3\n0 1\n0 2\n1 +7\n", True),
    (read_graph_file, "3 1\n0 0000000000000000001\n", True),  # 19 digits
    (read_graph_file, "3 1\n0 1234567890123456789\n", True),
    (read_graph_file, "3 1\n0 \u0661\n", True),  # ARABIC-INDIC DIGIT ONE
    (read_graph_file, "3 3\n0 1\n\n0 2\n1 2\n", True),  # blank line inside the data
    (read_graph_file, "3 3\n0 1\n0 2\n1 2", False),  # no final newline
    (read_graph_file, "3 3\n0 1\n0 2\n1 2\ntrailing text\n", False),
    (read_graph_file, "3 1\n0 " + "0" * 4400 + "1\n", True),  # beyond Python's int digit limit
    (read_graph_file, "3 1\n0 " + "0" * (1 << 17) + "1\n", True),  # a line longer than a block
    # Bernoulli rows: two distinct tokens, each repeated
    (read_matrix_file, "2 3\n" + f"{_BERNOULLI_TOKEN} -{_BERNOULLI_TOKEN} {_BERNOULLI_TOKEN}\n" * 2,
     False),
    # tokens of 1 to 7, 8, 9 to 32 and 33 bytes: the line loop takes any length
    (read_matrix_file, "1 4\n1 0.125 -0.0625 1234567\n", True),
    (read_matrix_file, "1 3\n0.015625 -0.03125 12345678\n", True),
    (read_matrix_file,
     "1 3\n0.1000000000000000055511151 -1.2345678901234567e-300 0.100000000000000005551115123125\n",
     True),
    (read_matrix_file, "1 1\n0.1000000000000000055511151231257\n", False),
    (read_matrix_file, "2 2\n0.0 -0.0\n-0.0 0.0\n", False),
    (read_matrix_file, "2 2\n0.125 0.126\n0.126 0.125\n", True),  # only the last byte differs
    # 20-byte tokens that differ only in byte 12
    (read_matrix_file,
     "2 2\n-0.10206207261596577 -0.10206207271596577\n-0.10206207271596577 -0.10206207261596577\n",
     True),
    (read_matrix_file, "1 2\nnan 1.0\n", True),
    (read_matrix_file, "2 1\n1.0\n-inf\n", True),
    (read_matrix_file, "1 3\n1_000 1e5 1_000\n", True),  # float reads 1_000
    (read_matrix_file, "1 6\n1_000 1e5 0.5 0.25 0.75 2.5\n", True),
    (read_matrix_file, "1 2\n- 1.0\n", True),
    (read_matrix_file, "1 6\n0.5 0.25 0.75 - 1.5 2.5\n", True),
    (read_matrix_file, "1 2\n1.0\t2.0\n", True),
    (read_matrix_file, "1 2\n1.0\u00a02.0\n", True),  # NO-BREAK SPACE
    (read_matrix_file, "1 2\n\u0661.5 2.0\n", True),  # ARABIC-INDIC DIGIT ONE
    (read_matrix_file, "2 2\r\n1.0 2.0\r\n3.0 4.0\r\n", True),
    (read_matrix_file, "1 2\n0x10 1.0\n", True),  # float refuses
    (read_matrix_file, "1 1\n5\n", False),  # shorter than a word
    (read_matrix_file, "1 2\n0.5 0.25", True),  # no final newline
    (read_matrix_file, "2 2\n1.0 2.0\n3.0 4.0\n\t\n", True),
    (read_matrix_file, "1 4000\n" + _ROW, True),
]


def test_bulk_parse_matches_the_line_loop(tmp_path, monkeypatch):
    """Well-formed and fault-injected files read to the same array or
    message whether or not the byte parser is available."""
    p = tmp_path / "t.txt"

    def line_loop_outcome(read):
        with monkeypatch.context() as mp:
            mp.setattr(fileio, "_plus_minus", lambda *args: None)
            mp.setattr(fileio, "_read_ints", lambda *args: None)
            return _read_outcome(read, p)

    for s in range(450):
        rng = np.random.default_rng(s)
        if s % 3 == 1:
            n = int(rng.integers(2, 9))
            edges = [tuple(e) for e in gen_gnp_half(n, Seed(s)).edges()]
            edges = _inject_edge_faults(rng, n, edges)
            read, header = read_graph_file, f"{n} {len(edges)}"
            body = [f"{u} {v}" for u, v in edges]
        else:
            shape = (rng.integers(1, 5), rng.integers(1, 5))
            if s % 3:  # a few distinct tokens, each repeated
                m = gen_bernoulli_sensing(int(shape[0]), int(shape[1]), Seed(s))
            else:
                m = rng.standard_normal(shape)
            read, header = read_matrix_file, f"{m.shape[0]} {m.shape[1]}"
            body = [" ".join(map(repr, row)) for row in m.tolist()]
        lines = [header] + (_inject_text_faults(rng, body) if body else [])
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert _read_outcome(read, p) == line_loop_outcome(read)
    parse_lines = fileio._parse_lines
    for read, text, refused_data in _BYTE_PARSER_FAULTS:
        p.write_bytes(text.encode("utf-8"))
        ran = []
        with monkeypatch.context() as mp:
            mp.setattr(fileio, "_parse_lines", lambda *args: ran.append(1) or parse_lines(*args))
            outcome = _read_outcome(read, p)
        assert outcome == line_loop_outcome(read), text[:40]
        assert bool(ran) == refused_data, text[:40]


def _no_line_loop(*args):
    raise AssertionError("the line loop ran on a well-formed file")


def _float_fixtures():
    """A Bernoulli matrix, and float matrices that are not ±t: sparse,
    Gaussian, of few distinct values, with ±t rows before or after Gaussian
    ones, and of models A and B."""
    rng = np.random.default_rng(7)
    phi = gen_bernoulli_sensing(96, 400, Seed(3))  # six 64 KiB blocks
    sparse = np.where(rng.random((60, 300)) < 0.9, 0.0, rng.standard_normal((60, 300)))
    gaussian = rng.standard_normal((10, 400))
    rounded = np.round(rng.standard_normal((40, 9)))  # seven distinct tokens
    # 20 Bernoulli rows fill more than two blocks, before or after the rest
    mixed = [np.vstack([phi[:20], gaussian]), np.vstack([gaussian, phi[:20]])]
    model_a, model_b = gen_model_a(150, Seed(4)), gen_model_b(150, 0.3, Seed(4))
    return phi, [sparse, gaussian[:, :40], rounded, *mixed, model_a, model_b]


def test_float_files_parse_alike_by_either_tier(tmp_path, monkeypatch):
    """A float file gives the same array whether the ±t tier may take it or
    is stubbed to refuse, so that the line loop parses it.  At the defaults
    the ±t tier takes the Bernoulli file, with no line loop, and any other
    file takes the line loop once, wherever its ±t rows are."""
    p = tmp_path / "m.txt"
    phi, others = _float_fixtures()
    parse_lines, calls = fileio._parse_lines, []
    monkeypatch.setattr(fileio, "_parse_lines", lambda *args: calls.append(1) or parse_lines(*args))
    for m in (phi, *others):
        write_matrix_file(p, m)
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(fileio, "_plus_minus", lambda *args: None)
            assert read_matrix_file(p).tobytes() == m.tobytes()
        assert len(calls) == 1
        calls.clear()
        assert read_matrix_file(p).tobytes() == m.tobytes()
        assert len(calls) == (0 if m is phi else 1)


def test_well_formed_files_skip_the_line_loop(tmp_path, monkeypatch):
    """Graph and ±t files read by their byte parsers, also when their last
    line ends the file without a newline."""
    monkeypatch.setattr(fileio, "_parse_lines", _no_line_loop)
    golden = Path(__file__).parent / "golden"
    assert read_graph_file(golden / "gnp_16_seed3.txt").n == 16
    assert read_matrix_file(golden / "matrix_6x12.txt").shape == (6, 12)
    p = tmp_path / "g.txt"
    g = gen_gnp_half(300, Seed(1))
    write_graph_file(p, g)
    assert read_graph_file(p) == g
    p.write_bytes(p.read_bytes()[:-1])
    assert read_graph_file(p) == g
    m = gen_bernoulli_sensing(128, 200, Seed(1))
    write_matrix_file(p, m)
    assert read_matrix_file(p).tobytes() == m.tobytes()
    p.write_bytes(p.read_bytes()[:-1])
    assert read_matrix_file(p).tobytes() == m.tobytes()


def test_float_files_read_as_np_loadtxt_reads_them(tmp_path):
    """np.loadtxt as an oracle for the line loop: every well-formed float
    file that is not ±t reads back to the array written, and to the array
    np.loadtxt reads from it, byte for byte."""
    p = tmp_path / "m.txt"
    rng = np.random.default_rng(1)
    for m in (*_float_fixtures()[1], rng.standard_normal((96, 160)),
              cholesky_reduce(gen_gnp_half(120, Seed(1))), gen_model_a(120, Seed(1)),
              gen_model_b(120, 0.3, Seed(1))):
        write_matrix_file(p, m)
        back = read_matrix_file(p)
        assert back.tobytes() == m.tobytes()
        assert back.tobytes() == np.loadtxt(p, skiprows=1, ndmin=2).tobytes()
    factor = Path(__file__).parent / "golden" / "reduce_gnp16_factor.txt"
    assert read_matrix_file(factor).tobytes() == np.loadtxt(factor, skiprows=1, ndmin=2).tobytes()


def _traced_peak(fn):
    """The tracemalloc peak of calling ``fn``, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_factor_read_holds_about_two_copies_of_its_text(tmp_path):
    """Reading a reduction factor, a file of mostly distinct floats, which
    the line loop reads, peaks below three times the file's size: the bytes,
    one decoded block as lines, and the array."""
    p = tmp_path / "c.txt"
    write_matrix_file(p, cholesky_reduce(gen_gnp_half(200, Seed(1))))
    peak = _traced_peak(lambda: read_matrix_file(p))
    assert peak < 3 * p.stat().st_size, (peak, p.stat().st_size)


def _plus_minus_mutations(body):
    """Edge cases and faults of a ±t file with data lines ``body``: (name,
    file text, whether the ±t tier takes the data).  The last is a file the
    line loop reads."""
    rows, width = len(body), body[0].count(" ") + 1
    t = body[0].split()[0].lstrip("-")
    text = f"{rows} {width}\n" + "".join(line + "\n" for line in body)
    cases = []
    for i in (0, rows // 2, rows - 1):  # one line changed: the tier refuses
        for name, old, new in [("moved -", "-" + t, t[0] + "-" + t[1:]), ("--t", "-" + t, "--" + t),
                               ("+t", " " + t, " +" + t), ("t with a digit more", t, t + "1"),
                               ("e- token", t, f"{float(t) * 10!r}e-1"), ("-s", "-" + t, "-0.5"),
                               ("s", " " + t, " 0.5")]:
            lines = body.copy()
            lines[i] = lines[i].replace(old, new, 1)
            cases.append((f"{name} in line {i + 2}", f"{rows} {width}\n" + "".join(
                line + "\n" for line in lines), False))
    column = "".join(line.split()[0] + "\n" for line in body)
    cases += [
        ("width 1", f"{rows} 1\n" + column, True),
        ("no final newline", text[:-1], True),
        ("trailing blank lines", text + "\n \n\n", True),
        ("trailing junk with -", text + f"-{t} -{t}\n", True),
        ("CRLF", text.replace("\n", "\r\n"), True),
        ("a row more in the header", f"{rows + 1}" + text[len(str(rows)):], False),
        ("a row fewer in the header", f"{rows - 1}" + text[len(str(rows)):], True),
        ("e- tokens throughout", text.replace(t, f"{float(t) * 10!r}e-1"), False),
        ("zeros", "2 3\n0.0 0.0 0.0\n0.0 0.0 0.0\n", True),
        ("a -0.0", "2 3\n0.0 0.0 0.0\n0.0 -0.0 0.0\n", True),
        ("nan", "2 2\nnan -nan\n-nan nan\n", True),
        ("inf", "2 2\ninf -inf\n-inf inf\n", True),
        ("+t throughout", "1 3\n+1.0 -+1.0 +1.0\n", False),
        ("t led by a vertical tab", "1 2\n\x0b1 -\x0b1\n", False),
        ("t ended by a vertical tab", "1 2\n1\x0b -1\x0b\n", True),  # str.split drops it
        ("t ended by a file separator", "1 2\n1\x1c -1\x1c\n", False),  # float keeps it
        ("non-ASCII t", "1 2\n\uff11 -\uff11\n", False),
    ]
    return cases


def test_plus_minus_files_read_alike_with_or_without_their_tier(tmp_path, monkeypatch):
    """Files whose tokens are t and -t, and mutations of them, read to the
    same array bytes or FileFormatError message whether the ±t tier may take
    them or is stubbed to refuse; it takes the well-formed ones and refuses
    the rest, which the line loop then reads."""
    p = tmp_path / "m.txt"
    plus_minus, took = fileio._plus_minus, []

    def recorded(*args):
        stop = plus_minus(*args)
        took.append(stop is not None)
        return stop

    def outcomes():
        took.clear()
        with monkeypatch.context() as mp:
            mp.setattr(fileio, "_plus_minus", recorded)
            on = _read_outcome(read_matrix_file, p)
        with monkeypatch.context() as mp:
            mp.setattr(fileio, "_plus_minus", lambda *args: None)
            off = _read_outcome(read_matrix_file, p)
        return on, off

    golden = Path(__file__).parent / "golden"
    for name in ("matrix_6x12.txt", "reduce_gnp16_factor.txt"):
        p.write_bytes((golden / name).read_bytes())
        on, off = outcomes()
        assert on == off and took == [name == "matrix_6x12.txt"], name
    phi = gen_bernoulli_sensing(96, 400, Seed(3))  # about 12 blocks
    body = [" ".join(map(repr, row)) for row in phi.tolist()]
    for name, text, takes in _plus_minus_mutations(body):
        p.write_bytes(text.encode("utf-8"))
        on, off = outcomes()
        assert on == off, name
        assert took == [takes], name
        if name == "a -0.0":
            assert np.signbit(read_matrix_file(p)).tolist() == [[False] * 3, [False, True, False]]
        if name in ("nan", "inf"):
            assert on == f"{p}:2: matrix contains non-finite entries"
    assert read_matrix_file(p).tolist() == [[1.0, -1.0]]  # the line loop's float reads "\uff11"


def test_plus_minus_read_holds_the_text_and_the_array(tmp_path):
    """Reading a Bernoulli matrix peaks below twice the file's size: the
    bytes, the array and one block's transients."""
    p = tmp_path / "b.txt"
    write_matrix_file(p, gen_bernoulli_sensing(128, 1024, Seed(1)))
    peak = _traced_peak(lambda: read_matrix_file(p))
    assert peak < 2 * p.stat().st_size, (peak, p.stat().st_size)


@pytest.mark.parametrize("block", [fileio._READ_BLOCK, 16])
def test_short_files_end_where_the_line_loop_says(tmp_path, monkeypatch, block):
    """A file that passes the size guard but holds fewer data lines than its
    header states runs its byte parser out of lines; the parser refuses it,
    and the line loop gives the message and line number of the file's end.
    The byte parser adds less than four times the file's size to the peak of
    reading the file with the line loop alone."""
    monkeypatch.setattr(fileio, "_READ_BLOCK", block)
    p = tmp_path / "t.txt"
    cases = [(read_graph_file, "_read_ints", "1000 3\n000000001 000000002\n000000003 000000004\n"),
             (read_matrix_file, "_plus_minus", "3 2\n0.5 -0.5\n-0.5 0.5\n")]
    for read, tier, text in cases:
        parse, took = getattr(fileio, tier), []

        def recorded(*args):
            found = parse(*args)
            took.append(found is not None)
            return found

        # with a final newline the third data line is blank; without, the file ends early
        for body, msg in [(text, "4: expected 2 values, got 0"),
                          (text[:-1], "3: expected 3 data rows, file ends early")]:
            p.write_text(body)
            peaks, took[:] = [], []
            for stub in (recorded, lambda *args: None):
                monkeypatch.setattr(fileio, tier, stub)
                assert _read_outcome(read, p) == f"{p}:{msg}", (tier, body)
                peaks.append(_traced_peak(lambda: _read_outcome(read, p)))
            assert took == [False, False], (tier, body)
            assert peaks[0] < peaks[1] + 4 * len(body), (tier, body, peaks)


@pytest.mark.parametrize("block", [fileio._READ_BLOCK, 16])
def test_line_loop_blocks_read_as_one_text(tmp_path, monkeypatch, block):
    """The line loop decodes and splits a block of whole lines at a time and
    reads as if it split the whole text: a row longer than a block, a last
    data line with no newline and a blank tail give np.loadtxt's array (a
    tail blank only to ``str.strip`` gives the array written), and
    a bad data line or trailing content near the last data row, in its
    block or the next, is named by its line."""
    monkeypatch.setattr(fileio, "_READ_BLOCK", block)
    parse_lines, calls = fileio._parse_lines, []
    monkeypatch.setattr(fileio, "_parse_lines", lambda *args: calls.append(1) or parse_lines(*args))
    p = tmp_path / "m.txt"
    rng = np.random.default_rng(5)
    m = rng.standard_normal((40, 4))
    text = _reference_table(m.shape, m.tolist())
    wide = rng.standard_normal((1, 20000))
    for body in (_reference_table(wide.shape, wide.tolist()), text[:-1], text + "\n\t\n"):
        p.write_text(body)
        assert read_matrix_file(p).tobytes() == np.loadtxt(p, skiprows=1, ndmin=2).tobytes()
    p.write_text(text + "\x1c \x0c\n\u3000\n", encoding="utf-8")  # whitespace to str.strip, not to bytes.strip
    assert read_matrix_file(p).tobytes() == m.tobytes()
    lines = text.splitlines()
    lines[28] += " 1.0"
    errors = [(text + "junk 1\n", "42: unexpected trailing content 'junk 1'"),
              (text + "\n \n1.0\n", "44: unexpected trailing content '1.0'"),
              (text + "x", "42: unexpected trailing content 'x'"),
              ("\n".join(lines) + "\n", "29: expected 4 values, got 5")]
    for body, msg in errors:
        p.write_text(body)
        assert _read_outcome(read_matrix_file, p) == f"{p}:{msg}"
    g = tmp_path / "g.txt"
    g.write_text("4 3\n0\t1\n0\t2\n1\t3")
    assert read_graph_file(g).edges().tolist() == [[0, 1], [0, 2], [1, 3]]
    g.write_text("4 3\n0\t1\n0\t2\n1\t3\n\n0 1\n")
    assert _read_outcome(read_graph_file, g) == f"{g}:6: unexpected trailing content '0 1'"
    assert len(calls) == 10


def test_line_loop_holds_the_bytes_and_one_block(tmp_path):
    """A short file is refused by its newline count before the line loop
    decodes a line, and the line loop holds the bytes, one decoded block and
    the values: a ``1000 40000`` graph header over 20,000 lines peaks below
    twice the file's size, and a tab-separated G(1000, 1/2) edge list below
    six times.  A tail of 200,000 blank lines is not split: below three
    times."""
    p = tmp_path / "g.txt"
    p.write_text("1000 40000\n" + "1 2\n" * 20000)
    assert _read_outcome(read_graph_file, p) == f"{p}:20002: expected 40000 data rows, file ends early"
    peak = _traced_peak(lambda: _read_outcome(read_graph_file, p))
    assert peak < 2 * p.stat().st_size, (peak, p.stat().st_size)
    g = gen_gnp_half(1000, Seed(1))
    write_graph_file(p, g)
    p.write_bytes(p.read_bytes().replace(b" ", b"\t"))
    assert read_graph_file(p) == g
    peak = _traced_peak(lambda: read_graph_file(p))
    assert peak <= 6 * p.stat().st_size, (peak, p.stat().st_size)
    p.write_text("2 2\n1.0 2.0\n3.0 4.0\n" + "\n \t\n" * 100_000)
    assert read_matrix_file(p).tolist() == [[1.0, 2.0], [3.0, 4.0]]
    peak = _traced_peak(lambda: read_matrix_file(p))
    assert peak < 3 * p.stat().st_size, (peak, p.stat().st_size)


def test_write_table_refuses_ints_outside_the_vertex_range(tmp_path):
    p = tmp_path / "t.txt"
    for bad in ([[0, MAX_GRAPH_VERTICES]], [[-1, 2]]):
        with pytest.raises(ValueError, match=rf"int table values must lie in \[0, {MAX_GRAPH_VERTICES}\)"):
            fileio._write_table(p, (1, 2), np.array(bad))
    assert not p.exists()


def test_graph_from_edge_array():
    edges = np.array([[0, 1], [1, 3], [2, 3]], dtype=np.int64)
    g = Graph.from_edges(4, edges)
    assert g.edges().tolist() == edges.tolist()
    assert g == Graph.from_edges(4, [(2, 3), (0, 1), (1, 3)])
    assert Graph.from_edges(3, np.empty((0, 2), dtype=np.int64)) == Graph(3)
    with pytest.raises(ValueError, match=r"self-loop at vertex 2"):
        Graph.from_edges(4, [(0, 1), (2, 2), (0, 7)])
    with pytest.raises(ValueError, match=r"edge \(0, 7\) out of range for n=4"):
        Graph.from_edges(4, [(0, 7), (2, 2)])
    for bad in ((0, 4), (-1, 2)):
        with pytest.raises(ValueError, match=rf"edge \({bad[0]}, {bad[1]}\) out of range"):
            Graph.from_edges(4, [bad])


def test_report_roundtrip(tmp_path):
    p = tmp_path / "r.json"
    write_report(
        p,
        command="exact",
        seed=Seed(5, 1),
        params={"order": 3},
        results={"value": 0.25},
        wall_time_ns=12345,
    )
    doc = read_report(p)
    assert doc["tool_version"] == VERSION
    assert doc["command"] == "exact"
    assert doc["seed"] == {"value": 5, "stream": 1}
    assert doc["params"] == {"order": 3}
    assert doc["results"] == {"value": 0.25}
    assert doc["wall_time_ns"] == 12345
    assert "diagnostics" not in doc  # written only when given
    text = p.read_text()
    assert text.endswith("\n")
    # keys are sorted, so serialization is stable
    assert text.index('"command"') < text.index('"params"') < text.index('"results"')


def _as_json(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# documents json spells in its own ways: NaN and +-Infinity, signed zero,
# the smallest subnormal, exponent notation from 1e16, empty and nested-empty
# containers, tuples, escapes and non-ASCII text in keys and strings, bools
# beside ints (and as keys, beside int and float keys), float subclasses
_CRAFTED_DOCS = [
    {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "floats": [math.nan, 1.0, -math.inf]},
    [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 123456789012345678.0, 0.1, 1.7976931348623157e308],
    {"empty": {}, "none": [], "nested": [[], {}, [[]], [{}], {"a": []}], "pair": ()},
    (1, 2.5, ("x", (), [None])),
    {"é": "ü☃\x00\n\"\\", "\U0001f600": ["\u2028", "tab\t"], "ascii": "plain"},
    [True, 1, False, 0, None, 1.0, -1, 2**70],
    {True: 1, 2: "two", 0.5: "half", False: [], 10: None},
    np.float64(0.1), [np.float64(1.5), np.float64(-0.0), np.float64(math.nan), 2.5],
    {"fs": (0.25, 0.5), "f64": np.float64(3.0), "ints": [1, 2, 3], "mixed": [1, 2.0]},
    math.inf, "text", None, True, 7, [],
]


def test_report_writer_writes_what_json_writes(tmp_path):
    """The report writer's text is json.dumps(doc, indent=2, sort_keys=True)
    plus a newline, for every JSON golden and for documents json spells in
    its own ways; a written report holds exactly those bytes."""
    goldens = sorted((Path(__file__).parent / "golden").glob("*.json"))
    assert len(goldens) >= 5
    for doc in [json.loads(p.read_text()) for p in goldens] + _CRAFTED_DOCS:
        assert fileio._json(doc) + "\n" == _as_json(doc), doc
    p = tmp_path / "r.json"
    write_report(p, ["exact", "--matrix", "ü.txt"], Seed(5, 1), {"order": 3, "threshold": None},
                 {"crafted": _CRAFTED_DOCS}, wall_time_ns=12345, diagnostics={"n": [0.5, math.nan]})
    doc = {"tool_version": VERSION, "command": ["exact", "--matrix", "ü.txt"],
           "seed": {"value": 5, "stream": 1}, "params": {"order": 3, "threshold": None},
           "results": {"crafted": _CRAFTED_DOCS}, "wall_time_ns": 12345,
           "diagnostics": {"n": [0.5, math.nan]}}
    assert p.read_bytes() == _as_json(doc).encode("ascii")


def test_cli_reports_are_written_as_json_writes_them(tmp_path, capsys, monkeypatch):
    """Every command's report, as the CLI tests write them (one per command,
    and an order-3 scan with a witness vector of floats), is the text json
    gives for the same document."""
    from test_cli import REPORT_CASES, make_matrix, run_cli

    encode, docs = fileio._json, []

    def recording(o, pad="\n"):
        if pad == "\n":  # a whole report, not a value nested in one
            docs.append(o)
        return encode(o, pad)

    monkeypatch.setattr(fileio, "_json", recording)
    g = str(tmp_path / "g.txt")
    run_cli(["generate", "planted", "--n", "10", "--t", "4", "--seed", "4", "--out", g], capsys)
    paths = {"m": make_matrix(tmp_path, capsys), "g": g, "o": str(tmp_path / "o.txt")}
    del docs[:]
    cases = list(REPORT_CASES.values())
    cases.append((["exact", "--matrix", "{m}", "--order", "3", "--threshold", "0.1"], "--out"))
    for i, (template, flag) in enumerate(cases):
        rep = tmp_path / f"r{i}.json"
        rc, _, _ = run_cli([a.format(**paths) for a in template] + [flag, str(rep)], capsys)
        assert rc == 0
        assert rep.read_text(encoding="ascii") == _as_json(docs[-1])
    assert len(docs) == len(cases)


def test_report_rejects_bad_json(tmp_path):
    p = tmp_path / "r.json"
    p.write_text("{not json")
    with pytest.raises(FileFormatError):
        read_report(p)


def test_results_bytes_ignores_timing(tmp_path):
    p = tmp_path / "r.json"
    results = {"b": 2, "a": [1, 2]}
    write_report(p, "x", None, {}, results, wall_time_ns=1)
    first = results_bytes(read_report(p))
    write_report(p, "x", None, {}, results, wall_time_ns=99999)
    second = results_bytes(read_report(p))
    write_report(p, "x", None, {}, results, wall_time_ns=1, diagnostics={"proof": "vector"})
    doc = read_report(p)
    assert doc["diagnostics"] == {"proof": "vector"}
    assert first == second == results_bytes(doc)
    assert first == b'{"a": [1, 2], "b": 2}'


def test_dict_builders():
    assert asdict(Seed(3, 2)) == {"value": 3, "stream": 2}
    rep = RipReport(order=2, value=0.5, direction="ExactMax", method="Exhaustive",
                    subsets_examined=10)
    d = asdict(rep)
    assert d["order"] == 2 and d["value"] == 0.5
    w = Witness(subset=(0, 2), vector=np.array([0.6, 0.0, 0.8]), excess=-0.1)
    wd = witness_dict(w)
    assert wd == {"subset": [0, 2], "vector": [0.6, 0.0, 0.8], "deviation": 0.1}
    cert = LazyCertificate(probe_order=2, probe_parameter=0.1,
                           target_parameter=0.5, max_certified_order=6)
    cd = asdict(cert)
    assert cd["max_certified_order"] == 6


def test_numpy_integer_seed_reports_plain_ints(tmp_path):
    seed = Seed(np.uint64(2**64 - 1), np.int32(3))
    d = asdict(seed)
    assert d == {"value": 2**64 - 1, "stream": 3}
    assert all(type(v) is int for v in d.values())
    p = tmp_path / "r.json"
    write_report(p, "x", seed, {}, {}, wall_time_ns=0)
    assert read_report(p)["seed"] == d


def test_experiment_dict_is_json_ready(tmp_path):
    rep = run_distinguishing_experiment(20, 8, 8, 0.2, trials=2, base_seed=Seed(3))
    d = asdict(rep)
    assert d["n"] == 20 and d["base_seed"] == {"value": 3, "stream": 0}
    assert len(d["trials"]) == 4
    assert d["separation"]["true_positives"] == rep.separation.true_positives
    p = tmp_path / "e.json"
    write_report(p, "experiment", Seed(3), {}, d, wall_time_ns=0)
    assert read_report(p)["results"]["n"] == 20


def test_exact_report_is_serializable(tmp_path):
    phi = gen_bernoulli_sensing(5, 8, Seed(1))
    rep, wit = exact_rip(phi, 2)
    doc_results = {"report": asdict(rep), "witness": witness_dict(wit)}
    p = tmp_path / "r.json"
    write_report(p, "exact", Seed(1), {"order": 2}, doc_results, wall_time_ns=0)
    back = read_report(p)
    assert back["results"]["report"]["value"] == rep.value
