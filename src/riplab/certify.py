"""Restricted isometry certification by exhaustive subset enumeration.

A matrix satisfies the restricted isometry property of order k with parameter
delta when every k-column submatrix acts on vectors like a near-isometry:
all eigenvalues of each k x k Gram submatrix lie in [1-delta, 1+delta].  The
exact parameter is the max over all C(N, k) column subsets of the spectral
deviation of the Gram submatrix from the identity.

`exact_rip` computes that max in one serial depth-first walk over column
prefixes in lexicographic order, one slice of prefixes per array operation,
so Python steps through slices, not prefixes or subsets.  A full scan takes
whole slices from the start; a threshold scan, which may stop among its
first subsets, starts with small ones.  Before the walk a few greedy seed
subsets are solved; the prune level is the larger of their best deviation
and the running best, capped at the threshold of a threshold scan.  A prefix
whose bound on every completion's Gershgorin bound (max_i sum_j
|(G_S - I)_ij|, which caps a subset's deviation) lies below the level is
skipped with all its completions.  The sums of the q largest |G_ij| beyond
a prefix come from exact tables within 2^21 doubles; beyond, and in an
order-3 threshold scan whose seed beats its threshold (it stops by the
seed's rank, too soon to repay tables), from q times row i's largest, which
rounding keeps an upper bound.  Every order k >= 2 ends in one pass over
the prefixes of length k-2 (at k = 2, the empty prefix): each of their
children is bounded from its parent's row sums, at O(k) cost, and
skipped before its own row sums are built; the completions of the others
are bounded one by one, and only subsets whose bound reaches the level go
on.  At k = 1 each column is bounded by its |G_ii - 1|.  A block of at
least 32 such subsets is first put to a batched shifted Cholesky proof
(`linalg.proved_within`) that each deviation lies below the level less
the margin; only the subsets it does not prove go to a batched eigensolve.
Nothing skipped could be the maximum or the first subset over
a threshold, so the reported value, the witness (always the
lexicographically smallest argmax subset) and the rank-defined
examined-subset count are those of a scan that solves every subset.
`lazy_certify` probes a small order m exhaustively, then lifts the measured
parameter to larger orders via the bound delta_k <= eps*(k-1)/(m-1).
"""

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, gram, proved_within

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
    """A column subset and unit vector x exhibiting the reported deviation
    |excess|; ``excess`` is the signed claim ||Phi x||^2 - 1: lambda - 1 for
    an eigenvector of eigenvalue lambda, c(k-1)/sqrt(n) for a clique witness."""

    subset: tuple
    vector: np.ndarray
    excess: float

    @property
    def deviation(self):
        return abs(self.excess)


@dataclass(frozen=True)
class LazyCertificate:
    """Result of probing order m and lifting to the largest certifiable order."""

    probe_order: int
    probe_parameter: float
    target_parameter: float
    max_certified_order: int


def require_unit_columns(phi, context="this operation"):
    """phi as a float matrix; UnitColumnError naming the column whose norm is
    farthest from 1 when that distance exceeds UNIT_COLUMN_TOL."""
    a = as_matrix(phi, "phi")
    norms = np.linalg.norm(a, axis=0)
    worst = int(np.argmax(np.abs(norms - 1.0)))
    if abs(norms[worst] - 1.0) > UNIT_COLUMN_TOL:
        raise UnitColumnError(
            f"{context} requires unit columns within {UNIT_COLUMN_TOL:.1e}; "
            f"column {worst} has norm {float(norms[worst])!r}"
        )
    return a


def coherence(phi):
    """Largest absolute inner product between two distinct columns."""
    a = as_matrix(phi, "phi")
    if a.shape[1] < 2:
        raise ValueError(f"coherence needs at least 2 columns, got {a.shape[1]}")
    return float(_row_maxima(gram(a))[0].max())


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


# A slice of prefixes holds their row sums, at most _SLICE_DOUBLES values
# (256 kB, cache-sized: larger slices measured slower).  A threshold scan's
# batches of completions start at _FIRST_ROWS subsets, so a hit near the start
# materialises little, and double up to _SLICE_DOUBLES; a full scan's start there.
# The top-q tables hold at most about _TABLE_DOUBLES values (16 MiB), so
# order 3 builds them for n <= 836; beyond, the walk reads the row-maximum cell.
# A batch whose every subset passes the screen stacks its k x k Gram
# submatrices for the eigensolve, and that stack stays within _CHUNK_DOUBLES
# doubles (4 MB).
_FIRST_ROWS = 256
_SLICE_DOUBLES = 1 << 15
_CHUNK_DOUBLES = 1 << 19
_TABLE_DOUBLES = 1 << 21

# A block of at least _PROOF_ROWS subsets is first put to `proved_within`,
# whose fixed cost of a few dozen whole-stack operations an eigensolve per
# subset overtakes at about 16, 20, 30 and 50 subsets for k = 5, 4, 3 and 2
# (one BLAS thread); bench-shaped scans time alike from 16 to 64.  The
# proof holds the gathered stack, its two shifted copies side by side and a
# trailing-update temporary, each at most twice the stack's doubles.
_PROOF_ROWS = 32

# Subsets solved by the greedy seed before the walk.
_SEEDS = 8

# Screening margin, per unit of k*k*(1 + level).  For a subset S let M = G_S - I,
# d = rho(M) its deviation and b = max_i sum_j |M_ij| its Gershgorin bound, so
# d <= b in exact arithmetic.  Each bound the walk computes and compares for
# S, whether S's own Gershgorin bound, the cheaper c_j + max(D, c_i) of
# `_Walk.completions` or a bound on all completions of a prefix of S, is a
# computed sum b' of at most 2k nonnegative pieces: |M_ij| values, D_i =
# |fl(G_ii - 1)|, prefix row sums s_i and c_i, and top-r table entries, each
# at least a computed sum of the r values it stands for (so is the row-maximum
# cell's sequential r-fold sum of a row's largest, at any k: rounding is monotone).
# (`_Walk.gate` sums k pieces: a parent's row sum s_i, or the largest
# s_i + D_i over i >= q, then |G_iq| or nothing, then a top-1 entry or a
# row's largest off-diagonal |G_ij|; the max over them is exact.)
# Every row sum of M is at most the exact sum of the values behind those
# pieces, and summing at most 2k terms in any order rounds by a factor of at
# most 1 + 2k u, so b <= b' (1 + 2k u) with u = eps/2.  eigvalsh is backward
# stable, |w' - w| <= p(k) u ||G_S||_2 with p(k) a modest
# polynomial, taken here as k^2 (observed errors are a few k ulps);
# ||G_S||_2 <= 1 + d, and |w' - 1| rounds once more.
# So the computed deviation d' <= b' + (k^2 + 2k + 2) u (1 + b'), and
# 16 k^2 u = 8 eps k^2 covers that for every k >= 1: a subset or prefix whose
# b' lies below level - margin has no subset with d' >= level.  The level is
# a computed deviation of some subset (the seed's or the running best),
# capped at the threshold in a threshold scan, so nothing screened or pruned
# can be the first argmax or the first subset over the threshold.  A subset
# that `proved_within` proves at the cutoff c = level - margin has d < c,
# so d' <= d + (k^2 + 2) u (1 + d) lies below the level just the same.
_SCREEN_MARGIN = 8 * np.finfo(np.float64).eps


def _row_maxima(g):
    """Each row's largest off-diagonal |G_ij| and its column j (when n = 1,
    where there is none, |G_00| and 0), formed in row blocks: no n x n
    temporary.

    Each block is copied before its abs is taken in place: numpy (2.4) runs
    a ufunc on strided rows shorter than its buffer, such as a row block of
    a padded G (`gram`), by copying them into the buffer, at twice the time."""
    n = len(g)
    top_j = np.empty(n, dtype=np.intp)
    rows = max(1, _SLICE_DOUBLES // n)
    for lo in range(0, n, rows):
        blk = g[lo:lo + rows].copy()
        np.abs(blk, out=blk).reshape(-1)[lo::n + 1] = -1.0  # the diagonal
        blk.argmax(axis=1, out=top_j[lo:lo + rows])
    return np.abs(g[np.arange(n), top_j]), top_j


def _seed_level(g, k, diag):
    """Largest deviation among up to _SEEDS greedy k-subsets, and each row's
    largest off-diagonal |G_ij| (`_row_maxima`); ``diag`` holds each
    |G_ii - 1|.

    Each starts from a row's largest off-diagonal |G_ij| (the rows with the
    largest such entries; the largest diagonal deviations when k = 1) and
    grows by the column whose Gershgorin row sum over the subset so far is
    largest.  Solved with the scan's own kernel, the value is a deviation the
    scan reaches, so it may serve as the prune level from the start.
    """
    top_v, top_j = _row_maxima(g)
    if k == 1:
        members = np.argsort(-diag, kind="stable")[:_SEEDS, None]
    else:
        rows = np.argsort(-top_v, kind="stable")[:_SEEDS]
        members = np.empty((len(rows), k), dtype=np.intp)
        members[:, 0], members[:, 1] = rows, top_j[rows]
        # a member's own |G_jj| lands on a member column, which is never picked
        sums = np.abs(g[rows]) + np.abs(g[top_j[rows]])
        r = np.arange(len(rows))[:, None]
        for m in range(2, k):
            score = sums + diag
            score[r, members[:, :m]] = -np.inf
            members[:, m] = score.argmax(axis=1)
            sums += np.abs(g[members[:, m]])
    return float(_block_deviations(g, np.sort(members, axis=1)).max()), top_v


def _top_tables(g, k):
    """t[q, b, i], the largest sum of q values |G_ij| over j >= b, j != i (0
    where there are fewer), for q < k and b <= n: a prefix ending at p reads
    cell p + 1, whose columns are the j > p.

    The best q-sum whose smallest index is j is |G_ij| plus the best
    (q-1)-sum beyond j, the previous table at cell j + 1; so each table is a
    suffix maximum over j of the previous one shifted by |G_ij|, formed in
    row blocks of G (which is exactly symmetric) from the last block to the
    first.
    """
    n = len(g)
    t = np.zeros((k, n + 1, n))  # the last cell, beyond every j, stays 0
    rows = max(1, _SLICE_DOUBLES // n)
    for lo in reversed(range(0, n, rows)):  # later cells first: a row reads beyond j
        hi = min(lo + rows, n)
        a = np.abs(g[lo:hi])
        a[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
        for q in range(1, k):
            cell = a + t[q - 1, lo + 1:hi + 1]
            np.maximum.accumulate(cell[::-1], axis=0, out=cell[::-1])
            np.maximum(cell, t[q, hi], out=t[q, lo:hi])
    return t


def _lex_rank(subset, n):
    """Lexicographic rank of a k-subset of range(n) among all k-subsets."""
    k = len(subset)
    rank, prev = 0, -1
    for m, c in enumerate(subset):
        # subsets agreeing before position m whose m-th index lies in (prev, c)
        rank += math.comb(n - 1 - prev, k - m) - math.comb(n - c, k - m)
        prev = c
    return rank


class _Walk:
    """One scan's walk: blocks of k-subsets of range(n) (one per int64 row)
    whose Gershgorin bound is not below `cutoff`, in lexicographic order.

    The prune ``level`` is ``seed``, the best deviation of the `_seed_level`
    subsets, capped at ``threshold`` in a threshold scan (the seed may lie
    above its first hit); ``best``, the largest deviation the caller has
    solved, lifts it.  A depth-first walk over column prefixes, one slice of
    prefixes per array operation; a full scan (no ``threshold``), which
    never stops early, takes whole slices from the start.  A prefix P (last
    index p, r indices to go) carries the row sums s_i = sum_{j in P}
    |(G - I)_ij| over all n columns; with D_i = |G_ii - 1|, every
    completion's Gershgorin bound is at most
      max( max_{i in P} s_i + top_r(i, p),  max_{i > p} D_i + s_i + top_{r-1}(i, p) ),
    top_q(i, p) being the sum of the q largest |G_ij| over j > p, read at
    ``tables[q, p + 1, i]`` in the form ``bound_tables`` names: "exact"
    `_top_tables` within _TABLE_DOUBLES, else (and in an order-3 threshold
    scan whose seed beats its threshold, which stops by the seed's rank)
    "row-max", q times row i's largest for every p.  At k >= 3 the walk
    skips each prefix of length 1 to k-2 whose bound lies below the cutoff,
    unless a completion count may overflow an int64, which leaves "none".
    Every k >= 2 ends in one pass over the prefixes of length k-2 (at k = 2
    the empty root; see `completions`): each child P + {q} is bounded from
    its parent's row sums, with top-1 values from the tables or else from
    each row's largest off-diagonal |G_ij|; the completions of the children
    that pass are bounded one by one.  At k = 1 the subsets are the columns
    whose D_i reaches the cutoff.  ``pruned`` and ``screened`` add up the
    subsets skipped each way, ``prefixes[m]`` the prefixes of length m
    pruned, and ``proved`` and ``solved`` the subsets the caller proves
    below the cutoff and solves.

    The walk's generators reach it through ``self``, which holds no
    reference back to them, so an abandoned walk frees G and its tables at
    once, not at the next cyclic garbage collection."""

    def __init__(self, g, k, threshold=None):
        self.g, self.k, self.n = g, k, len(g)
        self.diag = np.abs(np.diagonal(g) - 1.0)
        self.seed, row_max = _seed_level(g, k, self.diag)
        self.level = self.seed if threshold is None else min(self.seed, threshold)
        self.best = -1.0
        self.pruned = self.screened = self.proved = self.solved = 0
        self.prefixes = [0] * k
        self.full = threshold is None
        self.cols = np.arange(self.n)
        n = self.n
        # prefixes of length 1 to k-2 exist at k >= 3, and `prune` counts
        # their completions in an int64
        self.tables = None
        if k >= 3 and math.comb(n - 1, min(k - 1, (n - 1) // 2)) < 2**63:
            # an order-3 threshold scan whose seed beats its threshold stops
            # by the seed's rank, too soon to repay the tables
            must_stop = k == 3 and not self.full and self.seed > threshold
            if k * n * n <= _TABLE_DOUBLES and not must_stop:
                self.tables = _top_tables(g, k)
            else:  # the row-maximum cell: q times row i's largest, every b
                cell = np.zeros((k, n))
                np.cumsum(np.broadcast_to(row_max, (k - 1, n)), axis=0, out=cell[1:])
                self.tables = np.broadcast_to(cell[:, None], (k, n + 1, n))
            # comb[r, m] = C(m, r), so a prefix ending at p with r indices to
            # go has comb[r, n-1-p] completions: C(m, r) = sum_{j < m} C(j, r-1)
            self.comb = np.zeros((k, n), dtype=np.int64)
            self.comb[0] = 1
            for r in range(1, k):
                np.cumsum(self.comb[r - 1, :-1], out=self.comb[r, 1:])
        # top-1 values for `gate`, read at cell q + 1
        self.top1 = np.broadcast_to(row_max, (n + 1, n)) if self.tables is None else self.tables[1]
        # values in the next slice of prefixes and batch of completions: each
        # doubles up to _SLICE_DOUBLES, from _FIRST_ROWS subsets, or eight
        # times as many prefix row sums (cheap values: fewer, larger slices
        # measured faster on early threshold hits)
        first = _SLICE_DOUBLES if self.full else _FIRST_ROWS
        self.batch = {"prefixes": 8 * first, "subsets": first}

    @property
    def bound_tables(self):
        """The form of `tables`: "exact", "row-max" (of stride 0) or "none"."""
        t = self.tables
        return "none" if t is None else "row-max" if t.strides[1] == 0 else "exact"

    def cutoff(self):
        """The level less the screening margin: a bound below it rules out
        every subset it bounds."""
        top = max(self.level, self.best)
        bound = top - _SCREEN_MARGIN * self.k * self.k * (1.0 + top)
        # an infinite level (the eigenvalues of huge entries overflow) is NaN
        # here and must skip nothing
        return bound if math.isfinite(bound) else -math.inf

    def blocks(self):
        """The whole walk, from the empty prefix."""
        return self.descend(np.empty((1, 0), dtype=np.int64), np.zeros((1, self.n)))

    def take(self, kind, cap=_SLICE_DOUBLES, width=None):
        """Rows of ``width`` values (n by default) in the next slice of this kind."""
        size = min(self.batch[kind], cap)
        self.batch[kind] = min(2 * self.batch[kind], _SLICE_DOUBLES)
        return max(1, size // (width or self.n))

    def children(self, idx, width=None):
        """Slices (rep, q) of the children P + {q} of prefixes ``idx``, in
        order, P being idx[rep]; q runs up to the last index that leaves
        room for the rest of a k-subset."""
        depth = idx.shape[1]
        p = idx[:, -1] if depth else np.full(len(idx), -1)
        kids = self.n - self.k + depth - p  # the next index runs over p+1 .. n-k+depth
        ends = np.cumsum(kids)
        total = int(ends[-1]) if len(ends) else 0
        c0 = 0
        while c0 < total:  # a node's children may split across slices
            c = np.arange(c0, min(c0 + self.take("prefixes", width=width), total))
            c0 += len(c)
            rep = np.searchsorted(ends, c, side="right")
            yield rep, p[rep] + 1 + c - (ends[rep] - kids[rep])

    def prune(self, idx, s):
        """The prefixes, with their row sums, whose bound reaches the cutoff."""
        n, k, tops = self.n, self.k, self.tables
        r = k - idx.shape[1]
        p = idx[:, -1]
        f = np.arange(len(p))
        inner = (s[f[:, None], idx] + tops[r][p[:, None] + 1, idx]).max(axis=1)
        # terms are nonnegative and some i > p exists: zeros mask the others
        outer = np.where(self.cols > p[:, None], s + self.diag + tops[r - 1][p + 1], 0.0)
        keep = np.maximum(inner, outer.max(axis=1)) >= self.cutoff()
        self.pruned += int(self.comb[r, n - 1 - p[~keep]].sum())
        self.prefixes[k - r] += len(p) - int(keep.sum())
        return idx[keep], s[keep]

    def gate(self, idx, s, suffix, rep, q):
        """Which children P + {q} of prefixes ``idx`` (P, of length k-2,
        with row sums ``s`` and ``suffix`` = max_{i >= q} s_i + D_i) have a
        completion whose Gershgorin bound may reach the cutoff.

        A completion by j > q has row sums s_i + |G_iq| + |G_ij| for i in P,
        s_q + D_q + |G_qj| and s_j + D_j + |G_jq|, so every one is at most
          max( max_{i in P} s_i + |G_iq| + top_1(i, q),  suffix[q] + top_1(q, q) ).
        Skipped children count their n-1-q completions as pruned.
        """
        top = self.top1
        par = idx[rep]
        inner = s[rep[:, None], par] + np.abs(self.g[par, q[:, None]])
        inner += top[q[:, None] + 1, par]
        outer = suffix[rep, q] + top[q + 1, q]
        # the terms are nonnegative, so 0 stands for the max over an empty P
        keep = np.maximum(inner.max(axis=1, initial=0.0), outer) >= self.cutoff()
        self.pruned += int((self.n - 1 - q[~keep]).sum())
        self.prefixes[self.k - 1] += len(q) - int(keep.sum())
        return keep

    def completions(self, idx, s):
        """Blocks of the k-subsets P + {q, j}, j > q, of prefixes ``idx`` (P,
        of length k-2, with row sums ``s``) whose Gershgorin bound reaches
        the cutoff.

        Children P + {q} that pass `gate` (a full scan gates them in slices
        of k values each) go in batches; a batch builds its children's row
        sums c_j = s_j + |G_qj| only for j beyond its smallest q, and c_i =
        s_i + |(G - I)_iq| for the members i of P + {q}.  A completion's bound
        max(c_j + D_j, max_i c_i + |G_ij|) is at most c_j + max(D, c_i), which
        screens the row sums before the bound of each j > q is formed."""
        g, n, k, diag = self.g, self.n, self.k, self.diag
        suffix = np.maximum.accumulate((s + diag)[:, ::-1], axis=1)[:, ::-1]
        most = diag.max()
        for rep, q in self.children(idx, k if self.full else None):
            keep = self.gate(idx, s, suffix, rep, q)
            rep, q = rep[keep], q[keep]
            f0 = 0
            while f0 < len(q):
                f1 = min(f0 + self.take("subsets", _CHUNK_DOUBLES // (k * k)), len(q))
                r, qs = rep[f0:f1], q[f0:f1]
                kid = np.column_stack((idx[r], qs))
                lo = int(qs.min()) + 1
                c = s[r, lo:] + np.abs(g[qs, lo:])  # column j - lo holds c_j
                a = np.abs(g[kid, qs[:, None]])
                a[:, -1] = diag[qs]
                ci = s[r[:, None], kid] + a
                level = self.cutoff()
                rows, j = np.nonzero(c + np.maximum(ci.max(axis=1), most)[:, None] >= level)
                j += lo
                live = j > qs[rows]
                rows, j = rows[live], j[live]
                bound = c[rows, j - lo] + diag[j]
                for m in range(k - 1):
                    np.maximum(bound, ci[rows, m] + np.abs(g[kid[rows, m], j]), out=bound)
                keep = np.flatnonzero(bound >= level)
                self.screened += int((n - 1 - qs).sum()) - len(keep)
                if len(keep):
                    yield np.column_stack((kid[rows[keep]], j[keep]))
                f0 = f1

    def descend(self, idx, s):
        """The walk below prefixes ``idx`` (all of one length, in order)
        with row sums ``s``."""
        depth = idx.shape[1]
        if self.k == 1:
            keep = np.flatnonzero(self.diag >= self.cutoff())
            self.screened += self.n - len(keep)
            if len(keep):
                yield keep.astype(np.int64)[:, None]
            return
        if self.tables is not None and depth:
            idx, s = self.prune(idx, s)
        if depth == self.k - 2:
            yield from self.completions(idx, s)
            return
        for rep, q in self.children(idx):
            child = np.column_stack((idx[rep], q))
            sums = self.g[q]  # rows q of |G - I| plus the parents' row sums
            sums[np.arange(len(q)), q] -= 1.0
            np.abs(sums, out=sums)
            if depth:
                sums += s[rep]
            yield from self.descend(child, sums)


def _block_deviations(g, block):
    sub = g[block[:, :, None], block[:, None, :]]
    w = np.linalg.eigvalsh(sub)
    return np.maximum(np.abs(w[:, 0] - 1.0), np.abs(w[:, -1] - 1.0))


def _build_witness(g, subset):
    idx = np.asarray(subset, dtype=np.intp)
    sub = g[np.ix_(idx, idx)]
    w, v = np.linalg.eigh(sub)
    which = int(np.argmax(np.abs(w - 1.0)))
    vec = v[:, which].copy()
    peak = int(np.argmax(np.abs(vec)))
    if vec[peak] < 0.0:
        vec = -vec
    vec /= np.linalg.norm(vec)
    full = np.zeros(len(g))
    full[idx] = vec
    return Witness(tuple(subset), full, float(w[which]) - 1.0)


def exact_rip(phi, k, threshold=None, budget=DEFAULT_BUDGET, diagnostics=None):
    """Exact restricted isometry parameter of order k by full enumeration.

    Scans all C(N, k) column subsets of ``phi`` in lexicographic order and
    returns the report together with a witness for the worst subset (ties
    broken toward the lexicographically smallest subset).  Subsets whose
    Gershgorin bound, or whose prefix's bound, lies below the prune level by
    more than the rounding of the bound and of the eigensolve, or whose
    deviation a shifted Cholesky factorisation proves to lie that far below
    it, are counted as examined but not solved; they can change neither
    the value nor the witness.  The level is the larger of the running best
    and the best of a few greedy seed subsets solved first, capped at
    ``threshold``.

    If ``threshold`` (finite) is given, the scan stops at the first subset
    whose deviation strictly exceeds it; the report then carries direction
    ``LowerBound`` and the examined-subset count at the stopping point, that
    subset's rank plus one.

    ``budget``, a finite count of at least 1, always bounds C(N, k); beyond
    it a :class:`BudgetExceededError` is raised before any work is done.
    The report carries no timing; the CLI times whole commands.  When a
    ``diagnostics`` dict is given, the scan records in it the seed's level,
    the prefixes pruned by length (1 to k-1), and the subsets pruned with a
    prefix, screened by their own Gershgorin bound, proved and solved.
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
    if not 1 <= budget < math.inf:  # a NaN budget would bound nothing
        raise ValueError(f"budget must be a positive finite count, got {budget}")
    total = math.comb(ncols, k)
    if total > budget:
        raise BudgetExceededError(
            f"C({ncols},{k}) = {total} subsets exceeds the enumeration budget {budget}"
        )

    g = gram(a)
    walk = _Walk(g, k, threshold)
    examined = total
    stopped = False
    for block in walk.blocks():
        if len(block) >= _PROOF_ROWS:
            cols = block.T
            proved = proved_within(g[cols[:, None], cols[None]], walk.cutoff())
            walk.proved += int(np.count_nonzero(proved))
            block = block[~proved]
            if not len(block):
                continue
        devs = _block_deviations(g, block)
        walk.solved += len(block)
        if threshold is not None:
            over = np.flatnonzero(devs > threshold)
            if len(over):
                walk.best = float(devs[over[0]])
                best_subset = block[over[0]].tolist()
                examined = _lex_rank(best_subset, ncols) + 1
                stopped = True
                break
        top = int(np.argmax(devs))
        if float(devs[top]) > walk.best:
            walk.best = float(devs[top])
            best_subset = block[top].tolist()

    if diagnostics is not None:
        diagnostics.update(seed_level=walk.seed, bound_tables=walk.bound_tables,
                           prefixes_pruned=walk.prefixes[1:], subsets_pruned=walk.pruned,
                           subsets_screened=walk.screened, subsets_proved=walk.proved,
                           subsets_solved=walk.solved)
    witness = _build_witness(g, best_subset)
    if stopped:
        direction, method = LOWER_BOUND, WITNESS_LB
    else:
        direction, method = EXACT_MAX, EXHAUSTIVE
    report = RipReport(
        order=k,
        value=walk.best,
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
    if not 0 <= eps < math.inf:  # NaN fails both comparisons
        raise ValueError(f"parameter must be finite and nonnegative, got {eps}")
    return eps * (k - 1) / (m - 1)


def lazy_certify(phi, m, delta, budget=DEFAULT_BUDGET, diagnostics=None):
    """Certify the largest order reachable from an exhaustive probe at order m.

    Computes eps = exact order-m parameter, then returns the largest
    k <= min(rows, cols) with eps*(k-1)/(m-1) <= delta (0 when even the
    probe order fails, i.e. eps > delta).  Requires unit columns within
    1e-9.  The probe scan is bounded by ``budget`` and fills ``diagnostics``
    as in :func:`exact_rip`.  Returns the certificate together with the
    probe report.
    """
    a = require_unit_columns(phi, "lazy certification")
    cap = min(a.shape)
    m = int(m)
    if not 2 <= m <= cap:
        raise ValueError(f"probe order must satisfy 2 <= m <= {cap}, got {m}")
    delta = float(delta)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"target parameter must lie in (0, 1), got {delta}")

    report, _ = exact_rip(a, m, budget=budget, diagnostics=diagnostics)
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
