"""Restricted isometry certification by exhaustive subset enumeration.

A matrix satisfies the restricted isometry property of order k with parameter
delta when every k-column submatrix acts on vectors like a near-isometry:
all eigenvalues of each k x k Gram submatrix lie in [1-delta, 1+delta].  The
exact parameter is the max over all C(N, k) column subsets of the spectral
deviation of the Gram submatrix from the identity.

`exact_rip` computes that max in one serial scan over subsets in
lexicographic order, chunk by chunk.  A chunk's subsets are built as a block
of index rows from a table of all d-subsets (d < k, made once per scan): the
subsets sharing a (k-d)-prefix are that prefix followed by a contiguous run
of table rows, so Python steps through prefixes, not subsets.  Each chunk is
bounded first: the Gershgorin bound max_i sum_j |(G_S - I)_ij| caps a
subset's deviation, and only subsets whose bound can still reach the running
best go to a batched eigensolve.  The screen discards no subset that could be
the maximum or the first one over a threshold, so the reported value, the
witness (always the lexicographically smallest argmax subset) and the
rank-defined examined-subset count are those of the unscreened scan.
`lazy_certify` probes a small order m exhaustively, then lifts the measured
parameter to larger orders via the bound delta_k <= eps*(k-1)/(m-1).
"""

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, gram

DEFAULT_BUDGET = 10**8
UNIT_COLUMN_TOL = 1e-9

# Directions a report's value can bound the true parameter from.
EXACT_MAX = "ExactMax"
LOWER_BOUND = "LowerBound"

# How the value was obtained.
EXHAUSTIVE = "Exhaustive"
WITNESS_LB = "WitnessLB"


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would scan more subsets than the budget."""


class UnitColumnError(ValueError):
    """Raised when an operation requiring unit columns gets a matrix without them."""


@dataclass(frozen=True)
class RipReport:
    """Outcome of one certification run."""

    order: int
    value: float
    direction: str
    method: str
    subsets_examined: int


@dataclass(frozen=True)
class Witness:
    """A column subset and unit vector exhibiting the reported deviation."""

    subset: tuple
    vector: np.ndarray
    deviation: float


@dataclass(frozen=True)
class LazyCertificate:
    """Result of probing order m and lifting to the largest certifiable order."""

    probe_order: int
    probe_parameter: float
    target_parameter: float
    max_certified_order: int


def require_unit_columns(phi, tol=UNIT_COLUMN_TOL, context="this operation"):
    """phi as a float matrix; UnitColumnError naming the column whose norm is
    farthest from 1 when that distance exceeds tol."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
    a = as_matrix(phi, "phi")
    norms = np.linalg.norm(a, axis=0)
    worst = int(np.argmax(np.abs(norms - 1.0)))
    if abs(norms[worst] - 1.0) > tol:
        raise UnitColumnError(
            f"{context} requires unit columns within {tol:.1e}; "
            f"column {worst} has norm {float(norms[worst])!r}"
        )
    return a


def coherence(phi):
    """Largest absolute inner product between two distinct columns."""
    a = as_matrix(phi, "phi")
    if a.shape[1] < 2:
        raise ValueError(f"coherence needs at least 2 columns, got {a.shape[1]}")
    g = gram(a)
    off = np.abs(g - np.diag(np.diag(g)))
    return float(off.max())


def check_subset(subset, ncols):
    """Validate a strictly increasing, in-range, nonempty index subset."""
    idx = tuple(int(i) for i in subset)
    if not idx:
        raise ValueError("index subset must be nonempty")
    for a, b in itertools.pairwise(idx):
        if b <= a:
            raise ValueError(f"indices must be strictly increasing, got {idx}")
    if idx[0] < 0 or idx[-1] >= ncols:
        raise ValueError(f"index out of range for {ncols} columns: {idx}")
    return idx


def subset_deviation(phi, subset):
    """Spectral deviation max_i |lambda_i(G_S) - 1| of the Gram matrix G_S of
    columns ``subset``."""
    a = as_matrix(phi, "phi")
    idx = check_subset(subset, a.shape[1])
    w = np.linalg.eigvalsh(gram(a[:, idx]) - np.eye(len(idx)))
    return float(max(abs(w[0]), abs(w[-1])))


# Scan chunks start at _FIRST_ROWS subsets, so a threshold hit near the start
# materialises little, and double up to _MAX_ROWS, fewer for k > 8: a chunk
# whose every subset passes the screen stacks its k x k Gram submatrices for
# the eigensolve, and that stack stays within _CHUNK_DOUBLES doubles (4 MB).
_FIRST_ROWS = 256
_MAX_ROWS = 8192
_CHUNK_DOUBLES = 1 << 19

# Screening margin, per unit of k*k*(1 + best).  For a subset S let M = G_S - I,
# d = rho(M) its deviation and b = max_i sum_j |M_ij| its Gershgorin bound, so
# d <= b in exact arithmetic.  The computed bound b' rounds G_ii - 1 once and
# adds k nonnegative terms, so b <= b' (1 + k u) with u = eps/2.  eigvalsh is
# backward stable, |w' - w| <= p(k) u ||G_S||_2 with p(k) a modest polynomial,
# taken here as k^2 (observed errors are a few k ulps); ||G_S||_2 <= 1 + d,
# and |w' - 1| rounds once more.
# So the computed deviation d' <= b' + (k^2 + k + 2) u (1 + b'), and
# 16 k^2 u = 8 eps k^2 covers that for every k >= 1: a subset whose b' lies
# below best - margin has d' < best.  It can be neither the first argmax nor
# the first subset over a threshold, which the running best never exceeds.
_SCREEN_MARGIN = 8 * np.finfo(np.float64).eps


def _chunks(k, total):
    """(start rank, row count) of consecutive scan chunks covering all ranks."""
    cap = max(1, min(_MAX_ROWS, _CHUNK_DOUBLES // (k * k)))
    rows = min(_FIRST_ROWS, cap)
    start = 0
    while start < total:
        count = min(rows, total - start)
        yield start, count
        start += count
        rows = min(2 * rows, cap)


# The suffix table holds at most _SUFFIX_ROWS rows (1.3 MB at width 5) and at
# most a 16th of the scan's subsets, so a scan that stops in its first chunk
# does not pay for a table larger than the work it saves.
_SUFFIX_ROWS = 1 << 15


def _suffix_width(n, k):
    """Largest d whose table of C(n, d) rows stays within both caps, or 0
    (a one-row table); always d < k, as C(n, k) exceeds a 16th of the scan."""
    total = math.comb(n, k)
    return max((d for d in range(1, k)
                if math.comb(n, d) <= _SUFFIX_ROWS and 16 * math.comb(n, d) <= total),
               default=0)


def _suffix_table(n, d):
    """All d-subsets of range(n) in lexicographic order, one per row.

    Built column by column: the rows of width w starting at index a are a
    followed by each (w-1)-subset whose first index exceeds a, which are the
    last rows of the narrower table.
    """
    if d == 0:
        return np.empty((1, 0), dtype=np.int64)  # the one empty subset
    table = np.arange(n).reshape(n, 1)
    for width in range(2, d + 1):
        firsts = np.arange(n - width + 1)
        tails = len(table) - np.searchsorted(table[:, 0], firsts, side="right")
        src = len(table) - tails  # where each first index's tail starts
        dst = np.cumsum(tails) - tails  # where its rows go
        picks = np.arange(tails.sum()) + np.repeat(src - dst, tails)
        table = np.column_stack((np.repeat(firsts, tails), table[picks]))
    return table


def _subset_blocks(n, k):
    """(start rank, block) for each scan chunk: ``block`` holds, one per row,
    the k-subsets of range(n) of ranks start, start + 1, ... (int64, column
    major, so the bound gathers from contiguous index columns).

    In lexicographic order the completions of a (k-d)-prefix whose last
    index is p are the last C(n-1-p, d) rows of the d-subset table, so each
    block is a few prefixes broadcast beside contiguous table slices and
    Python walks C(n, k-d) prefixes, not C(n, k) subsets.
    """
    d = _suffix_width(n, k)
    table = _suffix_table(n, d)
    rows = len(table)
    prefixes = itertools.combinations(range(n - d), k - d)
    at = rows  # next table row to emit; rows means "fetch the next prefix"
    for start, count in _chunks(k, math.comb(n, k)):
        block = np.empty((count, k), dtype=np.int64, order="F")
        filled = 0
        while filled < count:
            if at == rows:
                prefix = next(prefixes)
                at = rows - math.comb(n - 1 - prefix[-1], d)
            take = min(count - filled, rows - at)
            block[filled:filled + take, : k - d] = prefix
            block[filled:filled + take, k - d :] = table[at:at + take]
            filled += take
            at += take
        yield start, block


def _gershgorin_bounds(g, block):
    """max_i sum_j |(G_S - I)_ij| for each subset S (row) of ``block``.

    Summed pair by pair from the flat Gram, which is exactly symmetric, so
    each off-diagonal entry is gathered once and no k x k stack is built.
    """
    n = g.shape[0]
    flat = g.ravel()
    cols = block.T  # contiguous rows: _subset_blocks builds column-major blocks
    sums = [np.abs(flat.take(c * (n + 1)) - 1.0) for c in cols]
    for i, j in itertools.combinations(range(len(cols)), 2):
        off = np.abs(flat.take(cols[i] * n + cols[j]))
        sums[i] += off
        sums[j] += off
    return np.maximum.reduce(sums)


def _block_deviations(g, block):
    sub = g[block[:, :, None], block[:, None, :]]
    w = np.linalg.eigvalsh(sub)
    return np.maximum(np.abs(w[:, 0] - 1.0), np.abs(w[:, -1] - 1.0))


def _build_witness(g, phi, subset):
    idx = np.asarray(subset, dtype=np.intp)
    sub = g[np.ix_(idx, idx)]
    w, v = np.linalg.eigh(sub)
    which = int(np.argmax(np.abs(w - 1.0)))
    vec = v[:, which].copy()
    peak = int(np.argmax(np.abs(vec)))
    if vec[peak] < 0.0:
        vec = -vec
    vec /= np.linalg.norm(vec)
    full = np.zeros(phi.shape[1])
    full[idx] = vec
    deviation = abs(float(w[which]) - 1.0)
    return Witness(tuple(subset), full, deviation)


def exact_rip(phi, k, threshold=None, budget=DEFAULT_BUDGET):
    """Exact restricted isometry parameter of order k by full enumeration.

    Scans all C(N, k) column subsets of ``phi`` in lexicographic order and
    returns the report together with a witness for the worst subset (ties
    broken toward the lexicographically smallest subset).  Subsets whose
    Gershgorin bound lies below the running best by more than the rounding
    of the bound and of the eigensolve are counted as examined but not
    solved; they can change neither the value nor the witness.

    If ``threshold`` (finite) is given, the scan stops at the first subset
    whose deviation strictly exceeds it; the report then carries direction
    ``LowerBound`` and the examined-subset count at the stopping point.

    ``budget``, a positive count that always applies, bounds C(N, k); beyond
    it a :class:`BudgetExceededError` is raised before any work is done.
    The report carries no timing; the CLI times whole commands.
    """
    a = as_matrix(phi, "phi")
    ncols = a.shape[1]
    k = int(k)
    if not 1 <= k <= ncols:
        raise ValueError(f"order must satisfy 1 <= k <= {ncols}, got {k}")
    if threshold is not None:
        threshold = float(threshold)
        if not math.isfinite(threshold):
            raise ValueError(f"threshold must be finite, got {threshold}")
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    total = math.comb(ncols, k)
    if total > budget:
        raise BudgetExceededError(
            f"C({ncols},{k}) = {total} subsets exceeds the enumeration budget {budget}"
        )

    g = gram(a)
    best_dev = -1.0
    examined = total
    stopped = False
    for start, block in _subset_blocks(ncols, k):
        bounds = _gershgorin_bounds(g, block)
        # "not below" keeps a NaN bound in the solved set
        rows = np.flatnonzero(~(bounds < best_dev - _SCREEN_MARGIN * k * k * (1.0 + best_dev)))
        if not len(rows):
            continue
        devs = _block_deviations(g, block[rows])
        if threshold is not None:
            over = np.flatnonzero(devs > threshold)
            if len(over):
                best_dev = float(devs[over[0]])
                best_subset = block[rows[over[0]]].tolist()
                examined = start + int(rows[over[0]]) + 1
                stopped = True
                break
        top = int(np.argmax(devs))
        if float(devs[top]) > best_dev:
            best_dev = float(devs[top])
            best_subset = block[rows[top]].tolist()

    witness = _build_witness(g, a, best_subset)
    if stopped:
        direction, method = LOWER_BOUND, WITNESS_LB
    else:
        direction, method = EXACT_MAX, EXHAUSTIVE
    report = RipReport(
        order=k,
        value=best_dev,
        direction=direction,
        method=method,
        subsets_examined=examined,
    )
    return report, witness


def lift_order(eps, m, k):
    """Parameter bound at order k implied by parameter eps at order m:
    eps*(k-1)/(m-1)."""
    m, k = int(m), int(k)
    if m < 2:
        raise ValueError(f"probe order must be at least 2, got {m}")
    if k < m:
        raise ValueError(f"target order {k} must be at least the probe order {m}")
    eps = float(eps)
    if eps < 0:
        raise ValueError(f"parameter must be nonnegative, got {eps}")
    return eps * (k - 1) / (m - 1)


def lazy_certify(phi, m, delta, budget=DEFAULT_BUDGET):
    """Certify the largest order reachable from an exhaustive probe at order m.

    Computes eps = exact order-m parameter, then returns the largest
    k <= min(rows, cols) with eps*(k-1)/(m-1) <= delta (0 when even the
    probe order fails, i.e. eps > delta).  Requires unit columns within
    1e-9.  The probe scan is bounded by ``budget`` as in :func:`exact_rip`.
    Returns the certificate together with the probe report.
    """
    a = require_unit_columns(phi, UNIT_COLUMN_TOL, "lazy certification")
    cap = min(a.shape)
    m = int(m)
    if not 2 <= m <= cap:
        raise ValueError(f"probe order must satisfy 2 <= m <= {cap}, got {m}")
    delta = float(delta)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"target parameter must lie in (0, 1), got {delta}")

    report, _ = exact_rip(a, m, budget=budget)
    eps = report.value
    # lift_order is nondecreasing in k, so the orders above m whose lifted
    # bound, as computed, stays within delta form a prefix of m+1..cap
    k_max = 0 if eps > delta else m + bisect_right(
        range(m + 1, cap + 1), delta, key=lambda k: lift_order(eps, m, k)
    )
    cert = LazyCertificate(
        probe_order=m,
        probe_parameter=eps,
        target_parameter=delta,
        max_certified_order=k_max,
    )
    return cert, report
