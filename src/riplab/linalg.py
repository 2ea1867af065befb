"""Dense symmetric linear algebra: eigenvalues, Gram matrices, PSD factors.

All matrices are float64 numpy arrays.  A symmetric input must equal its
transpose exactly, so the triangle a solver reads never changes a result;
the input is passed on unchanged, never symmetrized.

OpenBLAS's threaded LAPACK gives other bits than its serial one (n x n
Cholesky factors from n = 128, eigvalsh from n = 256 on a 2-core host), so
`sym_eigenvalues` and `cholesky_psd` run inside `one_blas_thread`, which
pins the OpenBLAS library numpy loaded to one thread for the call.
"""

import contextlib
import ctypes
import functools
import math

import numpy as np

# An eigenvalue above -PSD_TOL counts as nonnegative for factorization purposes.
PSD_TOL = 1e-10

# A Gram entry of an m-row matrix with |a_ij| <= M is a sum of m products,
# each at most M^2 in exact arithmetic.  Rounded (in any order, with or
# without fused multiply-adds), every partial sum is at most (1 + u)^(m+1)
# m M^2, u = 2^-53, which is below 2 m M^2 for every m < 2^50.  The product
# therefore cannot overflow when m M^2 <= max/2; computed as fl(fl(m M) M)
# it may read low by a factor (1 - u)^2, so comparing it with max/4 is safe.
_GRAM_SAFE = float(np.finfo(np.float64).max) / 4


# Values per row block of the finite and symmetry checks, which then build
# no mask the size of the matrix.
_CHECK_BLOCK = 1 << 16


def _row_blocks(a):
    """(first row, rows) of the 2-D array ``a``, a row block at a time."""
    step = max(1, _CHECK_BLOCK // a.shape[1])
    return ((i, a[i : i + step]) for i in range(0, len(a), step))


def as_matrix(m, name="matrix"):
    """Coerce to a 2-D float64 array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"{name} is empty")
    if not all(np.isfinite(rows).all() for _, rows in _row_blocks(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _symmetric(m):
    """M as a square float64 array, rejected unless M == M^T exactly: each
    row block's upper triangle is compared with the columns below it."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not all(np.array_equal(rows[:, i:], a[i:, i : i + len(rows)].T) for i, rows in _row_blocks(a)):
        asym = np.max(np.abs(a - a.T))
        raise ValueError(f"matrix is not symmetric: max |M - M^T| = {asym:.3e}")
    return a


# OpenBLAS's thread-count and config calls are {prefix}openblas_{name}{suffix}:
# scipy-openblas wheels (numpy >= 2) prefix "scipy_", 64-bit-integer builds
# suffix "64_".
_OPENBLAS_NAMES = [(p, s) for p in ("scipy_", "") for s in ("64_", "")]


@functools.cache
def _openblas():
    """(set_num_threads, get_num_threads, get_config) of the first OpenBLAS
    library mapped into this process, through ctypes, or None where there
    is none (another BLAS, or no /proc/self/maps to list the mappings)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = dict.fromkeys(line.split(None, 5)[-1].strip() for line in fh
                                  if "openblas" in line.lower() and "/" in line)
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_NAMES:
            try:
                calls = [getattr(lib, f"{prefix}openblas_{name}{suffix}")
                         for name in ("set_num_threads", "get_num_threads", "get_config")]
            except AttributeError:
                continue
            calls[0].argtypes, calls[0].restype = [ctypes.c_int], None
            calls[1].argtypes, calls[1].restype = [], ctypes.c_int
            calls[2].argtypes, calls[2].restype = [], ctypes.c_char_p
            return calls
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS set to one thread, and restore the
    caller's thread count on exit, also on an exception.  Yields whether the
    pin held: False, and nothing is set, where no OpenBLAS is found.

    Nothing is set either when OpenBLAS already runs on one thread, as in a
    nested block or a forked experiment worker: after a fork, setting any
    count restarts OpenBLAS's thread pool, whose new thread spins for about
    0.13 s of CPU time, a core's worth taken from the other processes."""
    calls = _openblas()
    if calls is None:
        yield False
        return
    set_threads, get_threads, _ = calls
    before = get_threads()
    if before == 1:
        yield True
        return
    set_threads(1)
    try:
        yield get_threads() == 1
    finally:
        set_threads(before)


def blas_info():
    """The BLAS facts a report's diagnostics record: OpenBLAS's config
    string (None without OpenBLAS) and whether `one_blas_thread` holds."""
    calls = _openblas()
    with one_blas_thread() as pinned:
        config = calls[2]().decode(errors="replace") if calls else None
    return {"config": config, "one_thread": pinned}


@one_blas_thread()
def sym_eigenvalues(m):
    """All eigenvalues of a symmetric matrix, sorted descending."""
    return np.linalg.eigvalsh(_symmetric(m))[::-1].copy()


def gram(phi):
    """Column Gram matrix Phi^T Phi, exactly symmetric.

    numpy forms a.T @ a for a C- or F-contiguous a by a symmetric rank-k
    update that mirrors one triangle; a strided a is made contiguous first,
    as its product need not be symmetric.  The exact-scan screen reads the
    upper triangle and eigvalsh the lower, so the scan relies on that.
    ValueError when the product overflows, detected by its min and max
    unless the input rules overflow out (see `_GRAM_SAFE`).

    The result is a view: the leading N columns of a buffer whose rows are
    an odd number of 64-byte lines long.  numpy mirrors the triangle column
    by column, so with rows of 2^p doubles its writes would all fall in the
    same few cache sets; padded rows spread them.  The same update and
    mirror run on the same operands, so the bits are those of a.T @ a.  An N
    that is an odd multiple of 8 needs no padding: G is then contiguous.
    """
    a = as_matrix(phi, "phi")
    if not (a.flags.c_contiguous or a.flags.f_contiguous):
        a = np.ascontiguousarray(a)
    n = a.shape[1]
    g = np.empty((n, 8 * (-(-n // 8) | 1)))[:, :n]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, with a message
        np.matmul(a.T, a, out=g)
    big = max(float(a.max()), -float(a.min()))
    if not a.shape[0] * big * big <= _GRAM_SAFE:
        if not (np.isfinite(g.min()) and np.isfinite(g.max())):
            raise ValueError("Gram matrix Phi^T Phi overflows: the matrix entries are too large")
    return g


def _factors(a):
    """True for each matrix of the (k, k, B) stack ``a`` (overwritten; its
    upper triangle is read) whose Cholesky factorisation runs to completion
    with finite diagonal entries: every pivot positive, nothing overflowed.

    Column j's steps are whole-stack operations, one sqrt, one division and
    one rank-1 update of the trailing block.  The last pivot decides: a
    pivot that is 0, negative or NaN at step j < k-1 turns every later
    diagonal entry into -inf or NaN (its sqrt is 0 or NaN, and x/0 or
    x/NaN squared is inf or NaN), and so does any intermediate overflow, as
    long as no diagonal entry starts at +inf."""
    k = len(a)
    for j in range(k - 1):
        row = a[j, j + 1:]
        row /= np.sqrt(a[j, j])
        a[j + 1:, j + 1:] -= row[:, None] * row[None, :]
    return a[-1, -1] > 0.0


def proved_within(stack, c):
    """True for each symmetric matrix G of the (k, k, B) stack ``stack``
    (not modified; its upper triangle is read) proved to have every
    eigenvalue strictly within c of 1, by shifted Cholesky factorisations of
    (1 + c - s)I - G and G - (1 - c + s)I that run to completion (Rump,
    "Verification of positive definiteness", BIT 2006).  The stack is laid
    out entry by entry and both shifted copies sit side by side in one
    (k, k, 2B) array, so each column step is a few whole-array operations
    for both factorisations at once.

    Write u = 2^-53 and T = 1 + c, for 0 < c <= 2^1000.  The stored
    diagonals are a_i = fl(h1 - G_ii) and a'_i = fl(G_ii - h2), for h1 =
    fl(fl(1 + c) - s) and h2 = fl(fl(1 - c) + s); the off-diagonal entries
    -G_ij and G_ij are exact.  Rounding 1 + c and 1 - c errs by at most uT,
    the shifts by at most u(1 + u)T + us, so h1 = T - s + e and h2 = 1 - c +
    s + e' with |e|, |e'| <= u(2 + u)T + us.  When both factorisations
    complete, every a_i and a'_i is positive (a pivot never exceeds its
    diagonal entry), so h2 < G_ii < h1 and each is at most fl(h1 - h2) <=
    2T(1 + 4u) =: D, finite, and `_factors` judges completion soundly.  A
    factorisation of a k x k matrix A that runs to completion gives R^T R =
    A + E with |E| <= g |R|^T |R| and g = (k+1)u / (1 - (k+1)u), whatever
    the order of summation (Demmel 1989; Higham, "Accuracy and Stability of
    Numerical Algorithms", Thm 10.3).  Cauchy-Schwarz bounds (|R|^T |R|)_ij
    by the product of column norms, each at most sqrt(A_ii / (1 - g)), so
    ||E||_2 <= ||E||_F <= tr(A) g/(1 - g) <= k D g/(1 - g), and R^T R is
    positive definite, so lambda_min(A) > -k D g/(1 - g).  The diagonal of
    (1 + c)I - G exceeds a_i by (T - h1) + (h1 - G_ii - a_i) >= s - |e| -
    uD/(1 - u), and that of G - (1 - c)I exceeds a'_i by as much.  Both are
    therefore positive definite once s(1 - u) >= u(2 + u)T + D(u/(1 - u) +
    k g/(1 - g)), which for k < 2^40 (any stack that fits in memory) holds
    when s >= uT(2k^2 + 2k + 4)(1 + 2^-9); s = 4(k+1)^2 u fl(1 + c), rounded
    once, is larger.  Underflow adds to E only terms of order k^2 2^-1074,
    far inside that spare.  A proved G thus has lambda_max(G) < 1 + c and
    lambda_min(G) > 1 - c.
    """
    k, _, b = stack.shape
    if not 0.0 < c <= 2.0**1000:  # also refuses NaN and inf: nothing is proved
        return np.zeros(b, dtype=bool)
    t = 1.0 + c
    s = (k + 1) ** 2 * math.ldexp(t, -51)
    a = np.empty((k, k, 2 * b))
    np.negative(stack, out=a[..., :b])
    a[..., b:] = stack
    diag = a.reshape(k * k, 2 * b)[::k + 1]
    diag[:, :b] += t - s
    diag[:, b:] -= (1.0 - c) + s
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        done = _factors(a)
    return done[:b] & done[b:]


@one_blas_thread()
def cholesky_psd(b):
    """Factor a symmetric PSD matrix as R^T R with R upper triangular.

    Tries the ordinary Cholesky factorization first.  If that fails but every
    eigenvalue is at least ``-PSD_TOL``, tiny negative eigenvalues are clipped
    to zero and a triangular factor is recovered by QR-factoring the
    eigenvalue square root; singular PSD inputs take this path.  Returns
    ``None`` when some eigenvalue is below ``-PSD_TOL``, i.e. the matrix is
    not positive semi-definite.

    The returned factor has a nonnegative diagonal and satisfies
    ``R.T @ R == b`` up to roundoff.
    """
    s = _symmetric(b)
    try:
        lower = np.linalg.cholesky(s)
        return lower.T.copy()
    except np.linalg.LinAlgError:
        pass
    w, q = np.linalg.eigh(s)
    if w[0] < -PSD_TOL:
        return None
    root = np.sqrt(np.clip(w, 0.0, None))[:, None] * q.T
    r = np.linalg.qr(root, mode="r")
    # qr() may return rows scaled by -1; flip them so diag(R) >= 0.
    flip = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return flip[:, None] * r
