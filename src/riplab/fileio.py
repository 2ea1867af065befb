"""Plain-text matrix/graph files and JSON run reports.

Matrix files: a header line "rows cols", then one line per row of
space-separated floats in shortest round-trip representation, so
parse(serialize(M)) reproduces M bit for bit.  Graph files: a header line
"n m" with n <= randgen.MAX_GRAPH_VERTICES, then m lines "u v" with
0 <= u < v < n in lexicographic order.

Both are tables, and one reader and one writer serve both.  Both are written
as byte arrays, a block of rows at a time, with the bytes of ``repr`` for
each value.  Int tables, the graphs' edge lists, gather digit strings.  A
float block formats each value repeated in a sample of it once, and computes
``repr``'s shortest round-trip digits exactly in numpy, on uint64 integers,
for the floats ``repr`` writes in fixed notation; ``repr`` itself formats
the rest (zeros, exponent notation, subnormals, exact ties).
Both are read as bytes, and each file takes one parser.  Ints take a Horner
pass over their digits, a block of lines at a time.  Floats take one of two
tiers.  A file whose every token is t or -t for one token t, such as a
Bernoulli matrix's ``±1/√m``, has its ``-`` bytes deleted a block at a time
and compared with a template of its first line, and ``float`` parses t and
-t once each.  The data lines of any other ASCII float file, such as a
Gaussian, model-A or model-B matrix or a reduction factor, take one
``np.loadtxt`` call.  A file its parser refuses (blank lines, ``1_000``,
non-ASCII text) is re-read line by line, which gives the same arrays and
names the first bad line.

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
_WRITE_BLOCK = 1 << 13
# Bytes scanned per block by _read_ints and _plus_minus, at least one line;
# their whole lines are parsed.
_READ_BLOCK = 1 << 16
# Digits of the longest int _read_ints takes: 18 stay below 2**63.
_LONGEST = 18


def _digit_strings(top):
    """Each value 0..top as one fixed-width byte string: its decimal digits
    and a space, left-padded with NUL bytes, which no file byte equals."""
    values = np.arange(top + 1)[:, None]
    powers = 10 ** np.arange(len(str(top)) - 1, -1, -1)
    chars = np.zeros((top + 1, len(powers) + 1), np.uint8)
    chars[:, :-1] = np.where((values >= powers) | (powers == 1), values // powers % 10 + 48, 0)
    chars[:, -1] = ord(" ")
    return chars.view(np.dtype((np.void, chars.shape[1]))).ravel()


# Fixed-notation digits of floats (_float_spans).  A normal float64
# x = M * 2**(a - 52) with M in [2**52, 2**53) and binary exponent a in
# [-13, 53], |x| in [2**-13, 2**54), is scaled by 10**s, s = _SCALE_S[a +
# 1023]: the least s with 2**a * 10**s >= 1e16, so x * 10**s lies in [1e16,
# 2e17) and s <= 20.  The scaled rounding interval of x, the reals that read
# back as x, is (2M - 1) * C / 2**54 to (2M + 1) * C / 2**54, with C =
# _SCALE_C[a + 1023] = 5**s * 2**(a + s + 1) = 2**(a + 1) * 10**s, an integer
# below 2**58.  Other exponents hold C = 0.
_SCALE_S = np.zeros(2048, np.intp)
_SCALE_C = np.zeros(2048, np.uint64)
for _a in range(-13, 54):
    _SCALE_S[_a + 1023] = _s = next(s for s in range(32) if 10**s << max(_a, 0) >= 10**16 << max(-_a, 0))
    _SCALE_C[_a + 1023] = 5**_s << (_a + _s + 1)
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_U = np.uint64  # numpy 1.x turns uint64 mixed with int64 or a negative int into float64
_LOW27, _LOW54, _HALF = _U(2**27 - 1), _U(2**54 - 1), _U(2**53)
# "dddd" for 0..9999 as little-endian uint32, and "ddd." for 0..999.
_QUADS = np.array([int.from_bytes(b"%04d" % i, "little") for i in range(10000)], np.uint32)
_POINTED = (_QUADS[::10] & np.uint32(0xFFFFFF)) | np.uint32(ord(".") << 24)
# A row of _float_spans: 16 integer digits at columns 3..18, the point at 19,
# 20 fraction digits at 20..39, and room for the separator after them.
_POINT = 19


def _repr_tokens(values):
    """``repr`` of each float of ``values``, each followed by a space, as one
    bytes object, and the size of each."""
    tokens = list(map(repr, values.tolist()))
    return (" ".join(tokens) + " ").encode(), np.fromiter(map(len, tokens), np.intp, len(tokens)) + 1


def _split(number, unit):
    """``number // unit`` and ``number % unit``, for a uint64 array and a
    positive unit (numpy's uint64 ``%`` is several times slower)."""
    high = number // _U(unit)
    return high, number - high * _U(unit)


def _round_trip_digits(bits):
    """For the float64 bit patterns ``bits`` of positive normal floats x
    with a binary exponent in [-13, 53], the shortest round-trip digits of
    each as the integer W = D * 10**j (D has no trailing zero) on the scale
    x * 10**s, with j, and whether rounding x * 10**s to a multiple of
    10**j was an exact tie, which ``repr`` decides instead.

    The scaled value V = 2M * C / 2**54 is held exactly, as its floor and
    its 2**-54ths, and its rounding interval V -+ C / 2**54 as the integers
    in it.  The largest j for which a multiple of 10**j lies in that range
    gives the fewest digits.  The multiple nearest V lies in it too, as the
    interval is symmetric about V.  For a power of two, M = 2**52, the
    interval reaches only half as far below V, but V = 2**a * 10**s is then
    the answer itself: a multiple of 10**min(s, a + s), with no multiple of
    a higher power of ten within V / 2**53 < 12 of it (s = 1 only for
    a >= 50, and 2**a % 10 is neither 1 nor 9)."""
    c = _SCALE_C[(bits >> _U(52)).astype(np.intp)]
    # 2M * C as hi * 2**54 + lo: 27-bit halves keep each product below 2**61.
    # Temporaries are updated in place: fewer arrays alive, fewer page faults.
    m0 = ((bits & _U(2**52 - 1)) | _U(2**52)) << _U(1)
    m1 = m0 >> _U(27)
    m0 &= _LOW27
    lo = m0 * (c & _LOW27)
    mid = m1 * (c & _LOW27)
    m0 *= c >> _U(27)
    mid += m0
    mid += lo >> _U(27)
    hi = m1
    hi *= c >> _U(27)
    hi += mid >> _U(27)
    lo &= _LOW27
    mid &= _LOW27
    lo |= mid << _U(27)
    del m0, m1, mid
    # the interval (L, U] as the integers first = floor(L) + 1 to last =
    # floor(U).  An end is an integer only when 2**54 divides C, for a >= 52,
    # where the ends are 10x -+ 5, or 10(x -+ 1) with x even: never a
    # multiple of 10**j that 10x is not, so whether the ends count (they do
    # iff M is even) changes no digit
    ch, cl = c >> _U(54), c & _LOW54
    last = hi + ch + ((lo + cl) >> _U(54))
    room = last - (hi - ch - (lo < cl) + _U(1))
    # j >= e iff last % 10**e <= last - first, which is below 100: so j >= 2
    # iff last % 100 is, and j counts on by the zero digits of last // 100
    top, two = _split(last, 100)
    j = (_split(two, 10)[1] <= room).astype(np.intp)
    live = np.flatnonzero(two <= room)
    j[live] = 2
    top = top[live]
    while len(live):
        top, digit = _split(top, 10)
        live, top = live[digit == 0], top[digit == 0]
        j[live] += 1
    # round V to the nearest multiple p of 10**j: compare its remainder,
    # (rest + lo / 2**54) * p, with p / 2, which for p = 1 is lo = 2**53
    p = _POW10[j]
    q = hi // p
    rest, half, low_half = hi - q * p, p >> _U(1), _HALF * (j == 0)
    at_half = rest == half
    up = (rest > half) | (at_half & (lo > low_half))
    return (q + up) * p, j, at_half & (lo == low_half)


def _float_spans(values):
    """Each float of the 1-D array ``values`` as ``repr`` writes it, followed
    by a space: a uint8 buffer, and the offset and size of each token in it.

    Most floats ``repr`` writes in fixed notation take exact digits
    (:func:`_round_trip_digits`), laid out in a row of 44 bytes per value
    with the point at column _POINT: W // 10**s is the integer part, and the
    rest the fraction, padded to 20 digits.  Zeros, subnormals, exact ties,
    |x| below 2**-13 and floats ``repr`` writes in exponent notation take
    :func:`_repr_tokens`, whose bytes follow the rows; a zero repeated in
    `_float_lines`' sample comes here once."""
    bits = values.view(np.uint64)
    magnitude = bits & _U(2**63 - 1)
    biased = (magnitude >> _U(52)).astype(np.intp)
    exact = np.flatnonzero(_SCALE_C[biased] != 0)
    scaled, j, tie = _round_trip_digits(magnitude[exact])
    s = _SCALE_S[biased[exact]]
    length = 17 + (scaled >= _POW10[17])  # W lies in [1e16, 2**58), so decpt >= -3
    digits, decpt = length - j, length - s
    keep = ~tie & (decpt <= 16)
    fixed, scaled, s, digits, decpt = (a[keep] for a in (exact, scaled, s, digits, decpt))
    unit = _POW10[np.minimum(s, 19)]  # W < 1e18: no integer part for s > 18
    whole = scaled // unit
    part = scaled - whole * unit
    head = part // _POW10[np.maximum(s - 8, 0)]  # fraction digits 1..8
    tail = (part - head * _POW10[np.maximum(s - 8, 0)]) * _POW10[20 - np.maximum(s, 8)]
    head *= _POW10[np.maximum(8 - s, 0)]
    # four digits a column: integer digits 15 | 14..11 | 10..7 | 6..3 | 2..0
    # and the point, fraction digits 1..4 | 5..8 | 9..12 | 13..16 | 17..20,
    # each number split from its last digits until what is left is all zero
    quads = np.empty((len(fixed), 11), np.uint32)
    whole, last3 = _split(whole, 1000)
    quads[:, 4] = _POINTED[last3]
    for number, cols in (whole, [3, 2, 1, 0]), (head, [6, 5]), (tail, [9, 8, 7]):
        while cols and number.any():
            number, quad = _split(number, 10**4)
            quads[:, cols.pop(0)] = _QUADS[quad]
        quads[:, cols] = _QUADS[0]
    flat = quads.view(np.uint8).reshape(-1)
    row = np.arange(0, flat.size, 44)
    neg = np.flatnonzero(np.signbit(values[fixed]))
    first = _POINT - np.maximum(decpt, 1)
    first[neg] -= 1
    ends = _POINT + np.maximum(digits - decpt, 1) + 2
    flat[row[neg] + first[neg]] = ord("-")
    flat[row + ends - 1] = ord(" ")
    start, size = np.empty(len(bits), np.intp), np.empty(len(bits), np.intp)
    start[fixed], size[fixed] = row + first, ends - first
    rest = np.ones(len(bits), bool)
    rest[fixed] = False
    fallback = np.flatnonzero(rest)
    if len(fallback):  # their tokens follow the rows
        text, size[fallback] = _repr_tokens(values[fallback])
        start[fallback] = flat.size + np.cumsum(size[fallback]) - size[fallback]
        flat = np.concatenate([flat, np.frombuffer(text, np.uint8)])
    return flat, start, size


# Values of a block that _float_lines samples for repeated bit patterns.
_SAMPLE = 64


def _float_lines(values, width):
    """The bytes of the floats ``values``, ``width`` to a line, each
    followed by a space or, at the end of a line, a newline.

    Each bit pattern repeated in a sample of _SAMPLE of the values, such as
    a triangular factor's zero or a Bernoulli matrix's two values, is
    formatted once for all its copies.  Tokens of one size are then copied
    out of :func:`_float_spans`' buffer together, as items of that many
    bytes read and written at any byte offset."""
    bits = values.view(np.uint64)
    sample, counts = np.unique(bits[:: -(-len(bits) // _SAMPLE)], return_counts=True)
    repeated = sample[counts > 1]
    pick = np.full(len(values), -1)
    for i, pattern in enumerate(repeated):
        pick[bits == pattern] = i
    rest = np.flatnonzero(pick < 0)
    pick[rest] = np.arange(len(repeated), len(repeated) + len(rest))
    buf, start, size = _float_spans(np.concatenate([repeated.view(np.float64), values[rest]]))
    start, size = start[pick], size[pick]
    stop = np.cumsum(size)
    out = np.empty(int(stop[-1]), np.uint8)
    at = stop - size
    for length in np.flatnonzero(np.bincount(size)):
        these = np.flatnonzero(size == length)
        item = np.dtype((np.void, int(length)))
        src = np.ndarray((len(buf) - length + 1,), item, buf, 0, (1,))
        dst = np.ndarray((len(out) - length + 1,), item, out, 0, (1,))
        dst[at[these]] = src[start[these]]
    out[stop[width - 1 :: width] - 1] = ord("\n")
    return out


def _write_table(path, header, table):
    """Two header integers, then one line of space-separated reprs per row of
    the 2-D array ``table``, formatted a block of rows at a time.

    Float blocks are formatted as byte arrays by :func:`_float_lines`.  Int
    rows hold vertex ids in
    [0, MAX_GRAPH_VERTICES): a block gathers every value's digit string from
    one table of at most that many, ends each row with a newline and drops
    the padding with one ``bytes.replace``."""
    width = table.shape[1]
    step = max(1, _WRITE_BLOCK // width)
    digits = None
    if table.dtype.kind in "iu" and table.size:
        if not 0 <= table.min() <= table.max() < MAX_GRAPH_VERTICES:
            raise ValueError(f"int table values must lie in [0, {MAX_GRAPH_VERTICES})")
        digits = _digit_strings(int(table.max()))
    with open(path, "wb") as fh:
        fh.write(f"{header[0]} {header[1]}\n".encode())
        for start in range(0, len(table), step):
            block = table[start : start + step]
            if digits is None:
                fh.write(_float_lines(block.ravel(), width))
            else:
                # one row of bytes per table row
                chars = digits[block.ravel()].view(np.uint8).reshape(len(block), -1)
                chars[:, -1] = ord("\n")
                fh.write(chars.tobytes().replace(b"\0", b""))


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


def _plus_minus(raw, start, rows, width):
    """The ``rows`` lines of ``raw`` from offset ``start`` as a (rows,
    width) float64 array, and the offset past them, when every token of
    them is t or -t for one token t; else None, before any file-sized copy.

    t is the first line's first token with its ``-`` deleted, and that line,
    with its ``-`` bytes deleted, must be ``width`` copies of t joined by
    single spaces.  Each block of about _READ_BLOCK bytes of whole lines,
    with its ``-`` bytes deleted, must then be that line repeated: one
    compare with a template built once.  Each ``-`` must start a token, so
    its offset less its rank is a token's offset, and no token takes two.
    ``float``, the line loop's parser, parses t and -t once each."""
    line = raw[start : raw.find(b"\n", start) + 1].replace(b"-", b"")
    t = line[: len(line) // width - 1]
    if not t or line != (t + b" ") * (width - 1) + t + b"\n":
        return None
    # float of bytes refuses non-ASCII or inner whitespace in t, and -t when t
    # starts with a sign or whitespace: a token means what str.split and float say
    try:
        plus, minus = float(t), float(b"-" + t)
    except ValueError:
        return None
    out = np.empty((rows, width))
    flat = out.reshape(-1)
    window = max(_READ_BLOCK, 2 * len(line))  # a signed line is under twice its unsigned size
    template = line * (window // len(line) + 1)
    done = 0
    while done < rows:
        stop = raw.rfind(b"\n", start, start + window) + 1
        unsigned = raw[start:stop].replace(b"-", b"")
        lines = min(len(unsigned) // len(line), rows - done)
        if len(unsigned) > lines * len(line) > 0:  # lines past the data, or a bad line
            ends = np.flatnonzero(np.frombuffer(raw, np.uint8, stop - start, start) == ord("\n"))
            stop = start + int(ends[min(lines, len(ends)) - 1]) + 1
            unsigned = raw[start:stop].replace(b"-", b"")
        # the template's newlines are len(line) apart, so a prefix of it that
        # ends at a newline is whole lines: ``lines`` of them, unless the cut
        # found fewer newlines, which leaves it too long to match
        if not lines or not template.startswith(unsigned):
            return None
        at = np.flatnonzero(np.frombuffer(raw, np.uint8, stop - start, start) == ord("-"))
        at -= np.arange(len(at))  # each "-"'s offset once the "-" bytes are deleted
        token = at // (len(t) + 1)  # np.divmod takes ten times as long
        if (token * (len(t) + 1) != at).any() or (np.diff(token) <= 0).any():
            return None
        flat[done * width : (done + lines) * width] = plus
        flat[done * width + token] = minus
        done, start = done + lines, stop
    return out, start


def _read_ints(raw, start, rows, width):
    """The ``rows`` lines of ``raw`` from offset ``start`` as a (rows, width)
    int64 array, and the offset past them; None unless each line is
    ``width`` tokens of 1 to _LONGEST ASCII digits joined by single spaces
    and ended by a newline.

    The lines are checked and parsed a block of about _READ_BLOCK bytes of
    whole lines at a time, each value by a Horner pass over its digits."""
    out = np.empty((rows, width), np.int64)
    flat = out.reshape(-1)
    pattern = np.full(width, ord(" "), np.uint8)  # the separators of one line
    pattern[-1] = ord("\n")
    done, size = 0, _READ_BLOCK
    while done < rows:
        block = np.frombuffer(raw, np.uint8, min(size, len(raw) - start), start)
        seps = np.flatnonzero(block <= ord(" "))  # the byte after each token
        lines = min(len(seps) // width, rows - done)
        if lines == 0:  # a line longer than the block, or no newline at the end
            if len(block) == len(raw) - start:
                return None
            size *= 2
            continue
        seps = seps[: lines * width]
        block = block[: seps[-1] + 1]
        gaps = np.diff(seps, prepend=-1)  # token bytes + 1
        if ((block[seps].reshape(lines, width) != pattern).any() or gaps.min() < 2
                or gaps.max() > _LONGEST + 1 or block.max() > ord("9")
                or np.count_nonzero(block < ord("0")) > len(seps)):
            return None
        # Horner over each value's digits, right-aligned at its separator;
        # positions left of a value read as "0", and the index seps - j wraps
        # only there
        longest = int(gaps.max()) - 1
        values = flat[done * width : (done + lines) * width]
        values.fill(0)
        for j in range(longest, 1, -1):
            values += np.where(gaps > j, block[seps - j], ord("0"))
            values *= 10
        values += block[seps - 1]  # every value has a last digit
        values -= ord("0") * (10**longest - 1) // 9
        done += lines
        start += len(block)
    return out, start


def _loadtxt(lines, rows, width):
    """The float lines ``lines`` as a (rows, width) array, by one
    ``np.loadtxt`` call.  None when it raises or warns, or reads another
    shape (it skips blank lines); then the line loop decides.  On ASCII text
    loadtxt splits at the whitespace ``str.split`` splits at, and parses a
    token as ``float`` does, with ``PyOS_string_to_double``, or refuses it,
    as it does ``1_000``."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, np.float64, comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    return table if table.shape == (rows, width) else None


def _read_table(path, header, shape, parse):
    """Header integers a, b and the rows of a table file as a 2-D float64 or
    int64 array (``parse`` is float or int).  ``shape(path, a, b)`` checks the
    header and gives (rows, width).  The file is read once, as bytes; its
    newlines are counted, and the values checked to fit in its bytes, before
    anything is allocated from the header.

    Each file takes one parser.  Int rows take :func:`_read_ints`, and float
    rows :func:`_plus_minus`, which takes ±t files (Bernoulli matrices).  The
    data lines of a float file it refuses, such as a Gaussian matrix or a
    reduction factor, take :func:`_loadtxt` when the file is ASCII, and
    :func:`_parse_lines` when that refuses them too, or they are ints or not
    ASCII.  The line loop names the first bad line or accepts what Python's
    ``int``/``float`` accept (``1_000``, tabs).  A file with a non-ASCII byte
    or a carriage return is first decoded as text mode reads it, as UTF-8
    with universal newlines."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.isascii() or b"\r" in raw:
        raw = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").encode("utf-8")
    end = raw.find(b"\n")
    first = (raw if end < 0 else raw[:end]).decode("utf-8")
    try:
        a, b = map(int, first.split())
    except ValueError:
        _fail(path, 1, f"expected header '{header}' of two integers, got {first!r}")
    rows, width = shape(path, a, b)
    # numpy counts a byte several times faster than bytes.count; per block, no
    # file-sized mask, and no view that outlives the count and keeps raw alive
    blocks = (np.frombuffer(raw, np.uint8, min(_READ_BLOCK, len(raw) - i), i)
              for i in range(0, len(raw), _READ_BLOCK))
    if (newlines := sum(int(np.count_nonzero(b == ord("\n"))) for b in blocks)) < rows:
        _fail(path, newlines + 1, f"expected {rows} data rows, file ends early")
    start = len(raw) if end < 0 else end + 1
    found = None
    if 2 * rows * width <= len(raw) - start:  # each value takes a byte and a separator
        found = (_plus_minus if parse is float else _read_ints)(raw, start, rows, width)
    if found is not None:
        table, stop = found
        tail = raw[stop:].decode("utf-8").split("\n")
    else:
        # at most two copies of the file alive at once, as when it was read as text
        text, raw = raw.decode("utf-8"), None
        ascii_floats = parse is float and text.isascii()
        lines, text = text.split("\n"), None
        data, tail = lines[1 : rows + 1], lines[rows + 1 :]
        table = _loadtxt(data, rows, width) if ascii_floats else None
        if table is None:
            table = _parse_lines(path, data, width, parse)
    for lineno, line in enumerate(tail, start=rows + 2):
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
    keys = u * n + v
    ascending = np.diff(keys, prepend=-1) > 0
    bad = np.flatnonzero(~(in_range & ascending))
    if len(bad):
        i = int(bad[0])
        if not in_range[i]:
            _fail(path, i + 2, f"edge ({u[i]}, {v[i]}) violates 0 <= u < v < n={n}")
        _fail(path, i + 2, f"edges out of order or duplicated at ({u[i]}, {v[i]})")
    return Graph._from_keys(n, keys, v * n + u)


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
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: invalid report JSON: {exc}") from exc


def results_bytes(report_doc):
    """Canonical bytes of a report's results section, for determinism checks."""
    return json.dumps(report_doc["results"], sort_keys=True).encode("utf-8")
