"""Dense symmetric linear algebra: eigenvalues, Gram matrices, PSD factors.

All matrices are float64 numpy arrays.  A symmetric input must equal its
transpose exactly, so the triangle a solver reads never changes a result;
the input is passed on unchanged, never symmetrized.
"""

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
