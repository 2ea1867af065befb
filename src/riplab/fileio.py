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
for the floats ``repr`` writes in fixed notation, then lays each out in four
uint64 words, its integer part moved one column left by masks to open the
point's; ``repr`` itself formats the rest (zeros, exponent notation,
subnormals, exact ties).  Tokens of one size are copied into a block of
spaces together.
Both are read as bytes, and each file takes one of two byte parsers or the
line loop.  Ints take a Horner pass over their digits, a block of lines at
a time, with branch-free products for the positions left of a value.  A
float file whose every token is t or -t for one token t, such as a
Bernoulli matrix's ``±1/√m``, has its ``-`` bytes deleted a block at a time
and compared with a template of its first line, and ``float`` parses t and
-t once each.  Any other file, such as a Gaussian, model-A or model-B
matrix, a reduction factor, or one its byte parser refuses (blank lines,
``1_000``, non-ASCII text), takes the line loop, which decodes a block of
whole lines at a time and names the first bad line.

Reports are JSON documents carrying the tool version, the invoked command,
the seed, the full parameter set, and a results object — everything needed
to reproduce the run.  Each part of ``results`` is ``dataclasses.asdict`` of
a frozen result dataclass, except a witness, whose array vector goes through
`witness_dict`.  Those dataclasses' fields are therefore the report format,
and diagnostics such as timings or fallback counts must stay out of them.
"""

import json
from array import array
from collections import Counter
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
_WRITE_BLOCK = 1 << 15
# Bytes scanned per block by the readers; their whole lines are parsed.
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
# 2e17) and 1 <= s <= 20.  The scaled rounding interval of x, the reals that
# read back as x, is (2M - 1) * C / 2**54 to (2M + 1) * C / 2**54, with C =
# _SCALE_C[a + 1023] = 5**s * 2**(a + s + 1) = 2**(a + 1) * 10**s, an integer
# below 2**58.  Other exponents hold C = 0.  Both tables are indexed by the
# top 12 bits of a float, so a sign bit adds 2048 and changes nothing.
_SCALE_S = np.zeros(4096, np.intp)
_SCALE_C = np.zeros(4096, np.uint64)
for _a in range(-13, 54):
    _SCALE_S[_a + 1023 :: 2048] = _s = next(s for s in range(32) if 10**s << max(_a, 0) >= 10**16 << max(-_a, 0))
    _SCALE_C[_a + 1023 :: 2048] = 5**_s << (_a + _s + 1)
_SCALE_P = 10.0**_SCALE_S  # 10**s as a float, exact as 5**s < 2**53
_U = np.uint64  # numpy 1.x turns uint64 mixed with int64 or a negative int into float64
_LOW54, _HALF, _U4 = _U(2**54 - 1), _U(2**53), np.uint32(10**4)
# A row of _float_spans is 32 bytes, four uint64 words, little-endian: the
# scaled digits W < 1e18 of x, zero-padded to 18, at columns 6..23 after six
# "0"s.  _HEAD holds "000000" and the two digits of 0..99, the first word,
# and _QUADS "dddd" for 0..9999, two to each of the next two words;
# _LEFT[k][s] masks the bytes of word k at columns <= 23 - s, where the
# integer part of W / 10**s ends.
_HEAD = np.array([int.from_bytes(b"000000%02d" % i, "little") for i in range(100)], np.uint64)
_i = np.arange(10000, dtype=np.uint32)  # byte k of "dddd" is "0" plus the digit of 10**(3 - k)
_QUADS = _i // 1000 + (_i // 100 % 10 << 8) + (_i // 10 % 10 << 16) + (_i % 10 << 24) + np.uint32(0x30303030)
_LEFT = np.array([[sum(255 << 8 * b for b in range(8) if 8 * k + b <= 23 - s) for s in range(21)]
                  for k in range(3)], np.uint64)


def _repr_tokens(values):
    """``repr`` of each float of ``values``, each followed by a space, as one
    bytes object, and the size of each."""
    text = (" ".join(map(repr, values.tolist())) + " ").encode()
    return text, np.diff(np.flatnonzero(np.frombuffer(text, np.uint8) == ord(" ")), prepend=-1)


def _split(number, unit):
    """``number // unit`` and ``number % unit``, for a uint64 array and a
    positive unit (numpy's uint64 ``%`` is several times slower)."""
    high = number // _U(unit)
    return high, number - high * _U(unit)


def _round_trip_digits(bits):
    """For the float64 bit patterns ``bits`` of normal floats x with a
    binary exponent in [-13, 53] (their signs ignored), the shortest
    round-trip digits of each as the integer W = D * 10**j (D has no
    trailing zero) on the scale |x| * 10**s, with j, and whether rounding
    |x| * 10**s to a multiple of 10**j was an exact tie, which ``repr``
    decides instead.

    The scaled value V = 2M * C / 2**54 is held exactly, as its floor and
    its 2**-54ths, and its rounding interval V -+ C / 2**54 as the integers
    in it.  The largest j for which a multiple of 10**j lies in that range
    gives the fewest digits.  The multiple nearest V lies in it too, as the
    interval is symmetric about V.  For a power of two, M = 2**52, the
    interval reaches only half as far below V, but V = 2**a * 10**s is then
    the answer itself: a multiple of 10**min(s, a + s), with no multiple of
    a higher power of ten within V / 2**53 < 12 of it (s = 1 only for
    a >= 50, and 2**a % 10 is neither 1 nor 9)."""
    top12 = (bits >> _U(52)).astype(np.intp)
    c = _SCALE_C[top12]
    # 2M * C as hi * 2**54 + lo.  The float product |x| * 10**s is within 16
    # of V, so 2M * C less it times 2**54, taken mod 2**64, is the exact
    # remainder as an int64, below 2**59 in size.
    hi = ((bits & _U(2**63 - 1)).view(np.float64) * _SCALE_P[top12]).astype(np.uint64)
    rem = ((bits & _U(2**52 - 1)) | _U(2**52)) << _U(1)
    rem *= c
    rem -= hi << _U(54)
    rem = rem.view(np.int64)
    hi += (rem >> 54).view(np.uint64)
    lo = (rem & (2**54 - 1)).view(np.uint64)
    del rem
    # the interval (L, U] as the integers low + 1 = floor(L) + 1 to last =
    # floor(U).  An end is an integer only when 2**54 divides C, for a >= 52,
    # where the ends are 10x -+ 5, or 10(x -+ 1) with x even: never a
    # multiple of 10**j that 10x is not, so whether the ends count (they do
    # iff M is even) changes no digit
    ch, cl = c >> _U(54), c & _LOW54
    last = hi + ch + ((lo + cl) >> _U(54))
    low = hi - ch - (lo < cl)
    # j >= e iff a multiple of 10**e lies in (low, last]: iff low and last
    # differ above their last e digits.  last - low < 33, so j >= 3 also
    # needs zero digits of last from 10**2 up, and j counts those on
    hundreds = last // _U(100)
    j = (last // _U(10) != low // _U(10)).astype(np.intp)
    many = np.flatnonzero(hundreds != low // _U(100))
    j[many] = 2
    live, top = many, hundreds[many]
    while len(live):
        top, digit = _split(top, 10)
        zero = np.flatnonzero(digit == 0)
        live, top = live[zero], top[zero]
        j[live] += 1
    # round V to the nearest multiple of 10**j: for j = 1, compare hi % 10
    # (and lo) with 5; for j = 0, lo with 2**53; for j >= 2 it is the one
    # multiple in the interval, as 10**j exceeds its width: last less its
    # last two digits
    tens, r = _split(hi, 10)
    half = r == 5
    w = (tens + ((r > 5) | (half & (lo != 0)))) * _U(10)
    tie = half & (lo == 0)
    ones = np.flatnonzero(j == 0)
    w[ones], tie[ones] = hi[ones] + (lo[ones] > _HALF), lo[ones] == _HALF
    w[many], tie[many] = hundreds[many] * _U(100), False
    return w, j, tie


def _float_spans(values):
    """Each float of the 1-D array ``values`` as ``repr`` writes it, followed
    by a space: a uint8 buffer, and the offset and size (uint8) of each
    token in it, the space counted.

    Most floats ``repr`` writes in fixed notation take exact digits
    (:func:`_round_trip_digits`), W on the scale |x| * 10**s, laid out in a
    row of 32 bytes: "000000" and W's 18 digits, those up to column 23 - s
    the integer part of W / 10**s.  That part moves one column left, which
    opens column 23 - s for the point, and the sign goes before it.  Zeros,
    subnormals, exact ties, |x| below 2**-13 and floats ``repr`` writes in
    exponent notation take :func:`_repr_tokens`, whose bytes follow the
    rows; a zero repeated in `_float_lines`' sample comes here once."""
    bits = values.view(np.uint64)
    top12 = (bits >> _U(52)).astype(np.intp)
    exact = np.flatnonzero(_SCALE_C[top12])
    bits = bits[exact]
    w, j, tie = _round_trip_digits(bits)
    s = _SCALE_S[top12[exact]]
    decpt = 17 + (w >= _U(10**17)) - s  # W lies in [1e16, 2**58), so decpt >= -3
    rest = np.ones(len(values), bool)
    rest[exact] = tie | (decpt > 16)
    fallback = np.flatnonzero(rest)
    text, text_size = _repr_tokens(values[fallback]) if len(fallback) else (b"", 0)
    rows = np.empty((len(w) + -(-len(text) // 32), 4), np.uint64)
    flat = rows.view(np.uint8).reshape(-1)
    flat[32 * len(w) : 32 * len(w) + len(text)] = np.frombuffer(text, np.uint8)
    # W's 18 digits: two in the first word, then four groups of four, two
    # to each of the next two words.  W // 10**8 < 2**32, as W < 2**58, so
    # the groups split in uint32
    halves = np.empty((2, len(w)), np.uint32)
    halves[0] = high = w // _U(10**8)
    halves[1] = w - high * _U(10**8)
    fours = halves // _U4
    halves -= fours * _U4
    head = fours[0] // _U4
    fours[0] -= head * _U4
    pairs = np.stack([_QUADS.take(fours), _QUADS.take(halves)], axis=-1)
    words = [_HEAD.take(head), *pairs.view(np.uint64)[..., 0]]
    ints = [word & _LEFT[k].take(s) for k, word in enumerate(words)] + [_U(0)]
    for k in range(3):
        words[k] ^= ints[k]  # the fraction stays
        words[k] |= ints[k] >> _U(8)
        np.bitwise_or(words[k], ints[k + 1] << _U(56), out=rows[: len(w), k])
    at = np.arange(23, 32 * len(w), 32) - s
    flat[at] = ord(".")
    whole = np.maximum(decpt, 1)
    at -= whole + 1
    flat[at] = ord("-")
    neg = (bits >> _U(63)).astype(np.intp)
    at += 1 - neg
    start, size = np.empty(len(values), np.intp), np.empty(len(values), np.uint8)
    start[exact], size[exact] = at, (neg + whole + np.maximum(s - j, 1) + 2).astype(np.uint8)
    start[fallback], size[fallback] = 32 * len(w) + np.cumsum(text_size) - text_size, text_size
    return flat, start, size


# Values of a block that _float_lines samples for repeated bit patterns.
_SAMPLE = 64


def _float_lines(values, width):
    """The bytes of the floats ``values``, ``width`` to a line, each
    followed by a space or, at the end of a line, a newline.

    Each bit pattern repeated in a sample of _SAMPLE of the values, such as
    a triangular factor's zero or a Bernoulli matrix's two values, is
    formatted once for all its copies.  The output starts as spaces, and
    tokens of one size, found by one radix sort of the sizes, are copied
    out of :func:`_float_spans`' buffer together, without their spaces, as
    items of that many bytes read and written at any byte offset."""
    bits = values.view(np.uint64)
    sample = Counter(bits[:: -(-len(bits) // _SAMPLE)].tolist())
    repeated = [b for b, count in sorted(sample.items()) if count > 1]
    seen, copies = np.zeros(len(values), bool), []
    for pattern in repeated:
        hit = bits == pattern
        seen |= hit
        copies.append(np.flatnonzero(hit))
    rest = np.flatnonzero(~seen)
    buf, start, size = _float_spans(np.concatenate([np.array(repeated, np.uint64).view(np.float64), values[rest]]))
    lengths = np.empty(len(values), np.uint8)  # size of each value's token
    for i, where in enumerate(copies):
        lengths[where] = size[i]
    lengths[rest] = size[len(repeated) :]
    stop = np.cumsum(lengths, dtype=np.intp)
    at = stop - lengths
    out = np.full(int(stop[-1]), ord(" "), np.uint8)
    # (size, offsets in out, offsets in buf): one group per repeated pattern,
    # then the other tokens by size
    order = np.argsort(size[len(repeated) :], kind="stable")
    sorted_size = size[len(repeated) :][order]
    at_rest, start_rest = at[rest[order]], start[len(repeated) :][order]
    bounds = [0, *(np.flatnonzero(sorted_size[1:] != sorted_size[:-1]) + 1).tolist(), len(order)]
    groups = [(size[i], at[where], start[i : i + 1]) for i, where in enumerate(copies)]
    groups += [(sorted_size[lo], at_rest[lo:hi], start_rest[lo:hi]) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    for length, dst_at, src_at in groups:
        item = np.dtype((np.void, int(length) - 1))
        src = np.ndarray((len(buf) - item.itemsize + 1,), item, buf, 0, (1,))
        dst = np.ndarray((len(out) - item.itemsize + 1,), item, out, 0, (1,))
        dst[dst_at] = src[src_at]
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


def _parse_lines(path, raw, start, rows, width, parse):
    """The ``rows`` lines of ``raw`` from offset ``start`` as a (rows, width)
    array, and the offset past them; ``raw`` holds ``rows`` newlines or more.
    Each block of about _READ_BLOCK bytes of whole lines (or one longer line)
    is decoded and split alone, and each line checked before its values are
    stored; the first bad line raises its ``path:line:`` message."""
    values, lineno = array("d" if parse is float else "q"), 2
    while lineno <= rows + 1:
        cut = raw.rfind(b"\n", start, start + _READ_BLOCK) + 1 or raw.find(b"\n", start) + 1 or len(raw)
        left = rows + 2 - lineno
        lines = raw[start:cut].decode("utf-8").split("\n", left)
        # the piece after the block's last newline is a data line only at the file's end
        rest = lines.pop() if cut < len(raw) or len(lines) > left else ""
        for lineno, line in enumerate(lines, start=lineno):
            tokens = line.split()
            if len(tokens) != width:
                _fail(path, lineno, f"expected {width} values, got {len(tokens)}")
            try:
                values.extend(map(parse, tokens))
            except (ValueError, OverflowError):  # not a number, or beyond int64
                _fail(path, lineno, f"invalid {parse.__name__} value in {line!r}")
        lineno, start = lineno + 1, cut - len(rest.encode("utf-8"))
    return np.asarray(values).reshape(-1, width), start  # a view: a copy doubles the peak


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
    # a signed line is under twice its unsigned size; no template outgrows the data
    window = max(min(_READ_BLOCK, len(raw) - start), 2 * len(line))
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
    whole lines at a time, each value by a Horner pass over its digits; a
    block with no whole line refuses."""
    out = np.empty((rows, width), np.int64)
    flat = out.reshape(-1)
    done = 0
    while done < rows:
        block = np.frombuffer(raw, np.uint8, min(_READ_BLOCK, len(raw) - start), start)
        seps = np.flatnonzero(block <= ord(" "))  # the byte after each token
        lines = min(len(seps) // width, rows - done)
        if lines == 0:  # a line longer than the block, or no newline at the end
            return None
        seps = seps[: lines * width]
        block = block[: seps[-1] + 1]
        gaps = np.empty_like(seps)  # token bytes + 1
        gaps[0] = seps[0] + 1
        np.subtract(seps[1:], seps[:-1], out=gaps[1:])
        # each line's last separator a newline, and all others spaces: the
        # seps are the only bytes below "0", and all but ``lines`` are spaces
        if ((block[seps[width - 1 :: width]] != ord("\n")).any() or block.max() > ord("9")
                or np.count_nonzero(block < ord("0")) != len(seps)
                or np.count_nonzero(block == ord(" ")) != len(seps) - lines
                or gaps.min() < 2 or gaps.max() > _LONGEST + 1):
            return None
        # Horner over each value's digits, right-aligned at its separator;
        # positions left of a value count 0 (a product, not a branchy
        # np.where), and the index seps - j wraps only there
        longest = int(gaps.max()) - 1
        values = flat[done * width : (done + lines) * width]
        digits, lens = block - ord("0"), gaps.astype(np.uint8)
        values[:] = digits[seps - longest] * (lens > longest)
        for j in range(longest - 1, 0, -1):
            values *= 10
            values += digits[seps - j] * (lens > j)
        done += lines
        start += len(block)
    return out, start


def _read_table(path, header, shape, parse):
    """Header integers a, b and the rows of a table file as a 2-D float64 or
    int64 array (``parse`` is float or int).  ``shape(path, a, b)`` checks the
    header and gives (rows, width).  The file is read once, as bytes, and
    the values checked to fit in its bytes before anything is allocated from
    the header; its lines are checked by the parser that reads them, and only
    blank lines may follow them.  Each file takes one parser.  Int rows take
    :func:`_read_ints`, and float rows :func:`_plus_minus`, which takes ±t
    files (Bernoulli matrices).  A file its byte parser refuses, such as a
    Gaussian matrix or a reduction factor, takes :func:`_parse_lines`, which
    holds one decoded block at a time and names the first bad line or
    accepts what Python's ``int``/``float`` accept (``1_000``, tabs).  A
    file with a non-ASCII byte or a carriage return is first read as text
    mode reads it, as UTF-8 with universal newlines; a byte that is not
    UTF-8 fails with its line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.isascii() or b"\r" in raw:
        # no UTF-8 sequence holds a CR or LF byte, so newlines are the same in bytes
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            _fail(path, raw.count(b"\n", 0, exc.start) + 1,
                  f"not valid UTF-8, byte 0x{raw[exc.start]:02x}: {exc.reason}")
    end = raw.find(b"\n")
    first = (raw if end < 0 else raw[:end]).decode("utf-8")
    try:
        a, b = map(int, first.split())
    except ValueError:
        _fail(path, 1, f"expected header '{header}' of two integers, got {first!r}")
    rows, width = shape(path, a, b)
    start = len(raw) if end < 0 else end + 1
    data = raw if raw.endswith(b"\n") else raw + b"\n"  # the byte parsers read whole lines
    found = None
    if 2 * rows * width <= len(data) - start:  # each value takes a byte and a separator
        found = (_plus_minus if parse is float else _read_ints)(data, start, rows, width)
    if found is None and raw.count(b"\n") < rows:  # the header and rows - 1 data lines end in one
        _fail(path, raw.count(b"\n") + 1, f"expected {rows} data rows, file ends early")
    table, stop = found or _parse_lines(path, raw, start, rows, width, parse)
    if raw[stop:].strip():  # ASCII whitespace is str whitespace; a tail of only that is blank
        for lineno, line in enumerate(raw[stop:].decode("utf-8").split("\n"), start=rows + 2):
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
    keys = u * n + v
    # whole-array verdicts first; only a file that fails one is searched for
    # its first bad row, where u*n + v ranks in-range rows and keys of
    # out-of-range rows never decide
    if len(edges) and not (edges.min() >= 0 and edges.max() < n and (u < v).all() and (keys[1:] > keys[:-1]).all()):
        in_range = (0 <= u) & (u < v) & (v < n)
        i = int(np.flatnonzero(~(in_range & (np.diff(keys, prepend=-1) > 0)))[0])
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


_quote = json.encoder.encode_basestring_ascii


def _float(o):
    """``o`` as `json` spells a float: its repr, or NaN and +-Infinity."""
    if o - o == 0.0:  # finite
        return float.__repr__(o)
    return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"


# json's spelling of each scalar type it writes, by exact type
_SPELL = {str: _quote, int: int.__repr__, float: _float,
          bool: lambda o: "true" if o else "false", type(None): lambda o: "null"}


def _scalar(o):
    """``o`` as `json` spells a string, null, bool, int or float, its types
    tested in json's order: bool before int, and subclasses such as
    np.float64 as their base types."""
    if isinstance(o, str):
        return _quote(o)
    if o is None or o is True or o is False:
        return _SPELL[type(o)](o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _json(o, pad="\n"):
    """The text ``json.dumps(o, indent=2, sort_keys=True)`` writes for ``o``
    nested at ``pad`` (a newline and the indent of the enclosing line),
    which json itself forms in pure Python, value by value.  A list of
    plain floats is one join of their reprs (kept unless one is NaN or
    infinite, whose reprs hold an "n"), a list of one other scalar type
    one join of their spellings."""
    spell = _SPELL.get(type(o))
    if spell is not None:
        return spell(o)
    inner = pad + "  "
    sep = "," + inner
    if isinstance(o, dict):
        if not o:
            return "{}"
        body = sep.join(_quote(k if isinstance(k, str) else _scalar(k)) + ": " + _json(v, inner)
                        for k, v in sorted(o.items()))
        return "{" + inner + body + pad + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        kinds = set(map(type, o))
        body = sep.join(map(float.__repr__, o)) if kinds == {float} else "n"
        if "n" in body:
            spell = _SPELL.get(kinds.pop()) if len(kinds) == 1 else None
            body = sep.join(map(spell, o) if spell else [_json(v, inner) for v in o])
        return "[" + inner + body + pad + "]"
    return _scalar(o)


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
        fh.write(_json(doc) + "\n")


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: invalid report JSON: {exc}") from exc


def results_bytes(report_doc):
    """Canonical bytes of a report's results section, for determinism checks."""
    return json.dumps(report_doc["results"], sort_keys=True).encode("utf-8")
