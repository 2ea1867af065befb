"""Graph-to-sensing-matrix reduction and clique-driven isometry breaking.

A graph G on n vertices maps to the matrix C(G) with C^T C = I + c*A/sqrt(n),
where A is the signed adjacency matrix (+1 edges, -1 non-edges, zero
diagonal) and c is a small positive constant.  When the right-hand side is
not positive semidefinite the reduction returns the zero matrix, which by
convention never satisfies any restricted isometry bound.

The point of the construction: a k-clique H in G yields the unit vector
x_i = 1/sqrt(k) on H with x^T A x = k-1 exactly, so
||C x||^2 = 1 + c(k-1)/sqrt(n) — a guaranteed isometry violation whenever
delta < c(k-1)/sqrt(n).  Planted-clique instances therefore defeat any
certifier at parameters where a typical random graph is still certifiable
through the largest eigenvalue of A.

`run_distinguishing_experiment` packages the two-arm trial: a null arm drawn
from G(n, 1/2) judged by a spectral statistic, and a planted arm judged by
the explicit clique witness.
"""

import math
import os
import pickle
import signal
import threading
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .certify import DEFAULT_BUDGET, LOWER_BOUND, Witness, exact_rip
from .linalg import as_matrix, cholesky_psd, one_blas_thread, sym_eigenvalues
from .randgen import Seed, gen_bernoulli_sensing, gen_gnp_half, identity_plus_scaled, plant_clique

YES = "yes"
NO_CLIQUE = "no-clique"

ARM_NULL = "null"
ARM_PLANTED = "planted"
VIOLATES = "violates-rip"
PLAUSIBLE = "rip-plausible"

STAT_LAMBDA1 = "lambda1"
STAT_EXACT = "exact"

CLIQUE_IDENTITY_TOL = 1e-8


@dataclass(frozen=True)
class ReductionParams:
    """Reduction constant c, finite and nonnegative.

    The default c = 0.3 keeps 3c < 1, the regime where I + c*A/sqrt(n) from a
    random graph is almost surely factorable; values at or above 1/3 are
    allowed but draw a warning.  The PSD tolerance is fixed at
    :data:`riplab.linalg.PSD_TOL`.
    """

    c: float = 0.3

    def __post_init__(self):
        if not 0 <= self.c < math.inf:
            raise ValueError(f"reduction constant must be finite and nonnegative, got {self.c}")
        if not 0 < self.c < 1 / 3:
            warnings.warn(
                f"reduction constant c = {self.c} is outside the standard range "
                "(0, 1/3); the factorable-with-high-probability regime needs 3c < 1",
                stacklevel=3,  # past the generated __init__, to the caller
            )


@dataclass(frozen=True)
class TrialRecord:
    seed: Seed
    arm: str
    statistic: float
    decision: str


@dataclass(frozen=True)
class Separation:
    true_positives: int
    false_positives: int


@dataclass(frozen=True)
class ExperimentReport:
    """Everything needed to audit one two-arm distinguishing run."""

    n: int
    k: int
    clique_size: int
    c: float
    delta: float
    threshold: float
    null_statistic: str
    rect_cols: int | None
    base_seed: Seed
    trials: tuple
    separation: Separation


def signed_adjacency(g):
    """Symmetric matrix with zero diagonal, +1 on edges, -1 on non-edges."""
    if g.n < 2:
        raise ValueError(f"need at least 2 vertices, got n={g.n}")
    return g.signed_adjacency()


def cholesky_reduce(g, params=ReductionParams()):
    """Map a graph to its reduction matrix C with C^T C = I + c*A/sqrt(n).

    Returns the n x n zero matrix when I + c*A/sqrt(n) has an eigenvalue
    below -PSD_TOL (see :func:`riplab.linalg.cholesky_psd`); downstream checks
    treat that as an automatic isometry violation.
    """
    factor = cholesky_psd(identity_plus_scaled(signed_adjacency(g), params.c))
    if factor is None:
        return np.zeros((g.n, g.n))
    return factor


def clique_witness(g, members, params=ReductionParams()):
    """Witness vector x_i = 1/sqrt(k) on a k-clique, zero elsewhere.

    Verifies that ``members`` induces a clique (so x^T A x = k-1 holds
    exactly, by counting: k(k-1) ordered pairs, every entry +1, divided
    by k) and records the implied excess ||C(G) x||^2 - 1 = c(k-1)/sqrt(n).
    """
    subset = tuple(sorted(int(v) for v in members))
    if len(subset) < 2:
        raise ValueError(f"a clique witness needs at least 2 vertices, got {len(subset)}")
    if (missing := g.missing_edge(subset)) is not None:
        raise ValueError(f"not a clique: missing edge {missing}")
    k = len(subset)
    vec = np.zeros(g.n)
    vec[list(subset)] = 1.0 / math.sqrt(k)
    return Witness(subset, vec, params.c * (k - 1) / math.sqrt(g.n))


def verify_violation(c_matrix, witness, delta):
    """True iff the witness exhibits | ||C x||^2 - 1 | > delta.

    ||C x||^2 - 1 must be the signed excess the witness claims (see
    :func:`_witness_deviation`); a mismatch, in sign too, means inconsistent
    inputs, not a negative verdict.  A support wiped out by the zero-matrix
    convention gives ||C x||^2 = 0, deviation 1, a violation for every
    delta < 1.
    """
    mat = as_matrix(c_matrix, "reduction matrix")
    if len(witness.vector) != mat.shape[1]:
        raise ValueError(
            f"witness length {len(witness.vector)} does not match "
            f"matrix with {mat.shape[1]} columns"
        )
    delta = float(delta)
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return _witness_deviation(mat, witness) > delta


def _witness_deviation(mat, witness):
    """| ||C x||^2 - 1 | for the witness vector x; ValueError unless the signed
    ||C x||^2 - 1 is within CLIQUE_IDENTITY_TOL of ``witness.excess`` or C is
    zero on the support.  A clique witness claims c(k-1)/sqrt(n), by the
    clique identity; an :func:`exact_rip` witness lambda - 1 =
    ||Phi x||^2 - 1 for its unit eigenvector x.
    """
    image = mat @ witness.vector
    excess = float(image @ image) - 1.0
    off = not abs(excess - witness.excess) <= CLIQUE_IDENTITY_TOL  # NaN is off
    if off and np.any(mat[:, list(witness.subset)]):
        raise ValueError(
            f"witness identity failed: ||Cx||^2 - 1 = {excess!r}, "
            f"the witness claims {witness.excess!r}"
        )
    return abs(excess)


# Names of the proofs that can decide lambda_1(A) >= k-1, recorded in a
# refute report's diagnostics.
PROOF_K_GT_N = "k>n"
PROOF_CHOLESKY = "cholesky"
PROOF_VECTOR = "vector"
PROOF_BAREISS = "bareiss"


def _is_positive_definite_exact(m):
    # Bareiss fraction-free elimination on Python ints (every division is
    # exact): the pivot of step i is the leading principal minor of order
    # i + 1, so by Sylvester's criterion m is positive definite iff every
    # pivot is positive
    a = np.array(m, dtype=object)
    prev = 1
    for i in range(len(a)):
        if a[i, i] <= 0:
            return False
        rest = a[i + 1 :, i + 1 :]
        rest[...] = (a[i, i] * rest - np.outer(a[i + 1 :, i], a[i, i + 1 :])) // prev
        prev = a[i, i]
    return True


def _rump_shift(n, k):
    """Shift c for which a Cholesky factorisation of fl(M - cI) that runs to
    completion proves M = (k-1)I - A positive definite (Rump, "Verification
    of positive definiteness", BIT 2006), for n x n signed adjacency A and
    2 <= k <= n <= 2^14.

    Write d = k-1 and u = 2^-53.  The diagonal of the factored matrix is
    s = fl(d - c) <= d (rounding is monotone and d is a double), with
    |s - (d - c)| <= u d, so it is exactly M - c'I for c' = d - s >= c - u d;
    the off-diagonal entries +-1 are exact.  A Cholesky factorisation that
    runs to completion gives R'^T R' = M - c'I + E with
    |E| <= g |R'|^T |R'| and g = (n+1)u / (1 - (n+1)u), whatever the order
    of summation, provided the BLAS is not Strassen-like (Demmel 1989;
    Higham, "Accuracy and Stability of Numerical Algorithms", Thm 10.3).
    Cauchy-Schwarz bounds (|R'|^T |R'|)_ij by the product of column norms,
    each at most sqrt(s / (1 - g)), so |E_ij| <= g s / (1 - g) and
    ||E||_2 <= n s g / (1 - g).  R'^T R' is positive definite, so
    lambda_min(M) > c' - n s g / (1 - g) >= c - d u (1 + n(n+1)/(1 - 2(n+1)u)),
    and 1/(1 - 2(n+1)u) <= 2 makes c = 2u d (n+1)^2 enough.  Underflow adds
    only a term of order n^2 2^-1074 to Rump's bound, far inside the spare
    u d (2n + 1) > 2^-52.  The shift is an integer below 2^53 times 2^-52,
    so exact, and below d, so s > 0.
    """
    return math.ldexp((k - 1) * (n + 1) ** 2, -52)


def _rump_shifted(g, k, m):
    """The leading block of order m of (k-1)I - A shifted down by
    :func:`_rump_shift`, as float64, for the signed adjacency A of g."""
    f = g.signed_adjacency(m)
    np.negative(f, out=f)
    np.fill_diagonal(f, (k - 1) - _rump_shift(g.n, k))
    return f


def _factors(f):
    """True when a Cholesky factorisation of f runs to completion."""
    try:
        np.linalg.cholesky(f)
    except np.linalg.LinAlgError:
        return False
    return True


def _failing_order(g, k):
    """(m, block): the order m of a leading block of f = :func:`_rump_shifted`
    that does not factor while the block of order m - 1 does, or None when
    all of f factors, and the largest leading block of f built, of order at
    least m.

    Orders 32, 64, ... up to n/2 are probed while their blocks factor, then
    f itself, so a proof that f factors costs at most a seventh more than
    one factorisation and an early failure much less.  When f fails, order
    n - 1 is tried (knife edges fail only at the last pivot), then the gap
    is bisected.  Only the blocks of the doubling probes are built; each
    later probe factors a leading block of the last, so an early failure
    never builds the n x n f.
    """
    n = g.n
    f = np.empty((0, 0))  # the largest block of f built so far
    lo, hi = 0, n + 1  # orders known to factor and not to (n + 1: none yet)
    while hi - lo > 1:
        if hi > n:
            mid = max(2 * lo, 32)
            if mid > n // 2:
                mid = n
        elif hi == n:
            mid = n - 1
        else:
            mid = (lo + hi) // 2
        if mid > len(f):
            f = _rump_shifted(g, k, mid)
        if _factors(f[:mid, :mid]):
            lo = mid
        else:
            hi = mid
    return None if lo == n else hi, f


# Scales of the rounded certificate vector: 1 rounds a null vector with
# entries in {-1, 0, 1}, such as the all-ones vector of K_n, exactly; 2^32
# keeps a strictly negative direction negative after rounding.
_VECTOR_SCALES = (1, 1 << 32)
# Largest denominator of the fractions :func:`_rational_scale` fits to x.
_VECTOR_DENOMINATOR = 1 << 16


def _rational_scale(x):
    """The least common multiple of the denominators of x's entries, each
    fitted by the nearest fraction of denominator at most
    ``_VECTOR_DENOMINATOR``, or None when it exceeds 2^32.  x scaled by it
    rounds a rational null vector, such as that of a complete multipartite
    graph with unequal parts (entries proportional to 1/(lambda_1 + 2 s_i - 1)
    for part sizes s_i), to integers exactly."""
    scale = 1
    for v in np.unique(x).tolist():
        scale = math.lcm(scale, Fraction(v).limit_denominator(_VECTOR_DENOMINATOR).denominator)
        if scale > _VECTOR_SCALES[-1]:
            return None
    return scale


def _vector_proves_reach(g, k, f, m):
    """True when an integer x != 0 with x^T ((k-1)I - A) x <= 0 is found from
    the Schur complement of f = (k-1-c)I - A at a failing pivot, the last of
    its leading block of order m: x is (-F11^-1 f12, 1) on the leading m
    coordinates, that is L^-T e_m for the unit triangular L of the block's
    LDL^T factorisation, normalised to max |x_i| = 1, scaled and rounded.
    The scales tried are ``_VECTOR_SCALES``, then :func:`_rational_scale`.

    The check is exact.  |x_i| <= 2^32 and m <= 2^14, so every partial sum of
    A x is an integer below 2^53 and the float product is exact in any
    summation order; x^T x and x^T A x are summed in Python ints.
    """
    x = np.zeros(m)
    x[-1] = 1.0
    try:  # m >= 2: the order-1 block (k-1) - _rump_shift(n, k) is positive
        x[:-1] = -np.linalg.solve(f[: m - 1, : m - 1], f[: m - 1, m - 1])
    except np.linalg.LinAlgError:  # a singular block gives no vector
        return False
    x /= np.max(np.abs(x))
    if not np.all(np.isfinite(x)):
        return False
    block = g.signed_adjacency(m)

    def proves(scale):
        xi = np.rint(scale * x)
        ax = (block @ xi).astype(np.int64).astype(object)
        xo = xi.astype(np.int64).astype(object)
        return (k - 1) * (xo @ xo) - xo @ ax <= 0

    if any(proves(scale) for scale in _VECTOR_SCALES):
        return True
    scale = _rational_scale(x)
    return scale is not None and proves(scale)


@one_blas_thread()
def _lambda1_reaches(g, k):
    """(lambda_1(A) >= k-1, name of the proof) for the signed adjacency A of
    g and 2 <= k <= n, decided by the last three certificates that
    :func:`spectral_clique_refuter` describes.  The first two read only the
    leading blocks of A they probe; Bareiss elimination builds all of it.
    Its Cholesky factorisations and solve run on one OpenBLAS thread, so the
    proof that decides does not depend on the thread count."""
    m, f = _failing_order(g, k)
    if m is None:
        return False, PROOF_CHOLESKY
    if _vector_proves_reach(g, k, f, m):
        return True, PROOF_VECTOR
    shifted = (k - 1) * np.eye(g.n, dtype=np.int64) - signed_adjacency(g).astype(np.int64)
    return not _is_positive_definite_exact(shifted), PROOF_BAREISS


def spectral_clique_refuter(g, k, diagnostics=None):
    """Refuter with exact soundness: "yes" iff lambda_1(A) >= k-1.

    A k-clique forces lambda_1 >= k-1 through its witness vector, so
    "no-clique" is only ever returned for graphs that really have no
    k-clique.  The comparison is proved, never estimated, as "is
    M = (k-1)I - A positive definite?", by the first of four certificates
    that applies:

    - ``k>n``: lambda_1 <= n-1 < k-1, "no-clique" before any matrix is built;
    - ``cholesky``: a floating-point Cholesky factorisation of M, shifted
      down by Rump's rigorous constant, runs to completion, so M is positive
      definite: "no-clique";
    - ``vector``: an integer vector x != 0 from the Schur complement at the
      failing pivot has x^T M x <= 0, checked exactly in integers: "yes"
      (for K_n at k = n, x is the all-ones vector);
    - ``bareiss``: fraction-free elimination of M in Python ints decides,
      only when both proofs above fail.

    When a ``diagnostics`` dict is given, its ``"proof"`` key is set to the
    name of the certificate that decided.
    """
    k = int(k)
    if k < 2:
        raise ValueError(f"clique size must be at least 2, got {k}")
    if k > g.n:  # lambda_1 <= n - 1 < k - 1
        reaches, proof = False, PROOF_K_GT_N
    else:
        reaches, proof = _lambda1_reaches(g, k)
    if diagnostics is not None:
        diagnostics["proof"] = proof
    return YES if reaches else NO_CLIQUE


def block_compose(a, b):
    """Block-diagonal composition diag(A, B) with zero off-diagonal blocks."""
    a = as_matrix(a, "first block")
    b = as_matrix(b, "second block")
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


# trials * n^3 from which an experiment's trials are split over the usable
# cores.  Measured on a 2-core host with OpenBLAS's threads unset (medians
# of 9 alternating runs, lambda1 arm), the split run took 2.07x the serial
# one at n = 24 x 4 trials (the fork, pipe and reap cost about 5 ms), 1.43x
# at 100 x 4, 1.04x at 200 x 2 (1.6e7), 1.08x at 100 x 20 (2e7), 0.86x at
# 150 x 8 (2.7e7), 0.83x at 200 x 4 (3.2e7) and 0.57-0.65x on the desk
# presets (1.6e8 and 1.3e9).
_SPLIT_WORK = 25 * 10**6


def _processes(n, trials, pinned):
    """How many processes run ``trials`` trials at order n: one when the
    work is below `_SPLIT_WORK`, when OpenBLAS is not pinned to one thread
    (a worker then may not be fork-safe, nor its bits those of the serial
    run), where os.fork is missing or while another Python thread runs (it
    may hold a lock the worker needs), else one per usable core."""
    if (trials * n**3 < _SPLIT_WORK or not pinned or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return 1
    return min(trials, len(os.sched_getaffinity(0)))


def _recorded(trial, ts):
    """{t: (records of trial t, the warnings it raised)} for the trials ts
    in order, up to the first that raises."""
    done = {}
    for t in ts:
        with warnings.catch_warnings(record=True) as caught:
            try:
                records = trial(t)
            except Exception:
                break
        done[t] = records, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
    return done


def _fork_share(trial, ts):
    """(pid, read end of its pipe) of a forked worker that sends back
    :func:`_recorded` of the trials ts, or None when no pipe or process can
    be made; the caller then runs those trials itself.

    The fork is safe: OpenBLAS's pthread_atfork handler stops its thread
    pool before fork, and the caller has pinned OpenBLAS to one thread, so
    the worker inherits that count, sets none (see `one_blas_thread`) and
    runs only single-threaded LAPACK, which never uses a pool.  Python 3.12
    warns in fork when a process has more than one thread, as OpenBLAS's
    pool can make it; that warning is dropped for this one call.  The
    worker leaves by os._exit, whatever happens, so it never returns into
    the caller's stack.
    """
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(r)
            with open(w, "wb") as out:
                pickle.dump(_recorded(trial, ts), out)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def _split_trials(trial, trials, processes):
    """The records of trials 0 .. trials-1 in trial order, the trials dealt
    round-robin to this process and ``processes - 1`` forked workers.

    The warnings of each trial are raised again in trial order.  A trial
    that no process recorded (it raised, or its worker failed in any way) is
    run here in its turn, so a run raises the error, after the warnings, of
    the serial run.  Every worker is reaped before this returns or raises,
    and killed first unless it has sent its records."""
    workers = {}
    try:
        for i in range(1, processes):
            if (worker := _fork_share(trial, range(i, trials, processes))) is not None:
                workers[worker[0]] = worker[1]
        done = _recorded(trial, range(0, trials, processes))
        for pid in list(workers):
            with workers[pid] as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del workers[pid]
            if status == 0:
                done.update(pickle.loads(data))
    finally:
        for pid, pipe in workers.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    records = []
    for t in range(trials):
        if t in done:
            pair, caught = done[t]
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno)
        else:
            pair = trial(t)
        records += pair
    return records


def run_distinguishing_experiment(
    n,
    clique_size,
    k,
    delta,
    params=ReductionParams(),
    trials=20,
    *,
    base_seed,
    rect_cols=None,
    null_statistic=STAT_LAMBDA1,
    budget=DEFAULT_BUDGET,
    diagnostics=None,
):
    """Two-arm planted-clique experiment against the reduction pipeline.

    Trial t draws a null graph G ~ G(n, 1/2) from the required keyword
    ``base_seed``'s child (t, 0), and from its child (t, 1) an independent
    graph with a planted clique of ``clique_size``; both are reduced.  The
    planted arm is judged by its explicit clique witness; the null arm by the
    spectral refuter's rule at order ``k`` (``lambda1`` statistic, threshold
    k-1), or by exhaustive enumeration with early exit at ``delta`` (``exact``
    statistic) when the subset count fits the budget.  When ``rect_cols`` is
    given, each matrix so judged is block-composed with an n x rect_cols
    Bernoulli sensing matrix into a 2n x (n + rect_cols) frame; the
    ``lambda1`` arm judges no matrix.  ``budget`` bounds every exact null
    scan, that of a zero reduction too.

    A zero reduction matrix is always classed as a violation: the ``lambda1``
    arm tests for it, and the ``exact`` scan of it stops at its first subset
    with deviation exactly 1, a ``LowerBound`` over any delta < 1.  The planted
    arm is a guaranteed detection whenever delta < c*(min(clique_size,k)-1)/
    sqrt(n); outside that range a warning is issued and the one-sided
    guarantee no longer applies.

    The trials run on one OpenBLAS thread each, split over the usable cores
    when the work is large enough (see `_processes`); records, warnings and
    errors are those of a serial run.  When a ``diagnostics`` dict is given,
    its ``"processes"`` key is set to the number of processes that ran them.
    """
    n, clique_size, k, trials = int(n), int(clique_size), int(k), int(trials)
    if not 2 <= clique_size <= n:
        raise ValueError(f"clique size must be in [2, {n}], got {clique_size}")
    if not 2 <= k <= n:
        raise ValueError(f"order must be in [2, {n}], got {k}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    delta = float(delta)
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if rect_cols is not None:
        rect_cols = int(rect_cols)
        if rect_cols < 1:
            raise ValueError(f"rect_cols must be positive, got {rect_cols}")
    if null_statistic not in (STAT_LAMBDA1, STAT_EXACT):
        raise ValueError(f"unknown null statistic {null_statistic!r}")

    witness_size = min(clique_size, k)
    guarantee = params.c * (witness_size - 1) / math.sqrt(n)
    if delta >= guarantee:
        warnings.warn(
            f"delta = {delta} is not below the clique witness deviation "
            f"{guarantee:.6g}; planted-arm detection is no longer guaranteed",
            stacklevel=2,
        )
    threshold = float(k - 1) if null_statistic == STAT_LAMBDA1 else delta

    def trial(t):
        """The null and planted records of trial t."""
        null_seed = base_seed.child(t, 0)
        g0 = gen_gnp_half(n, null_seed)
        if null_statistic == STAT_LAMBDA1:
            stat0 = float(sym_eigenvalues(signed_adjacency(g0))[0])
            # the reduction matters only when the refuter does not flag the
            # graph; R^T R has a unit diagonal, so R[0, 0] is 0 only in the
            # zero matrix
            flagged0 = _lambda1_reaches(g0, k)[0] or not cholesky_reduce(g0, params)[0, 0]
        else:
            c0 = cholesky_reduce(g0, params)
            if rect_cols is not None:
                c0 = block_compose(c0, gen_bernoulli_sensing(n, rect_cols, null_seed))
            rep0, _ = exact_rip(c0, k, threshold=delta, budget=budget)
            stat0 = rep0.value
            flagged0 = rep0.direction == LOWER_BOUND

        planted_seed = base_seed.child(t, 1)
        instance = plant_clique(gen_gnp_half(n, planted_seed), clique_size, planted_seed)
        c1 = cholesky_reduce(instance.graph, params)
        witness = clique_witness(instance.graph, instance.planted[:witness_size], params)
        if rect_cols is not None:
            c1 = block_compose(c1, gen_bernoulli_sensing(n, rect_cols, planted_seed))
            witness = replace(witness, vector=np.pad(witness.vector, (0, rect_cols)))
        stat1 = _witness_deviation(c1, witness)
        flagged1 = stat1 > delta
        return (TrialRecord(null_seed, ARM_NULL, stat0, VIOLATES if flagged0 else PLAUSIBLE),
                TrialRecord(planted_seed, ARM_PLANTED, stat1, VIOLATES if flagged1 else PLAUSIBLE))

    with one_blas_thread() as pinned:
        processes = _processes(n, trials, pinned)
        if diagnostics is not None:
            diagnostics["processes"] = processes
        if processes == 1:
            records = [r for t in range(trials) for r in trial(t)]
        else:
            records = _split_trials(trial, trials, processes)

    flagged = [r.arm for r in records if r.decision == VIOLATES]
    return ExperimentReport(
        n=n,
        k=k,
        clique_size=clique_size,
        c=float(params.c),
        delta=delta,
        threshold=threshold,
        null_statistic=null_statistic,
        rect_cols=rect_cols,
        base_seed=base_seed,
        trials=tuple(records),
        separation=Separation(flagged.count(ARM_PLANTED), flagged.count(ARM_NULL)),
    )


# Named desk-scale configurations.  They demonstrate the reduction mechanism
# at sizes where every run finishes in seconds; the asymptotic regime (delta
# shrinking as a power of n) is far out of reach at these n, and at k near
# sqrt(n) a typical null graph already contains natural k-cliques, so only
# the k = 35 configuration also exhibits two-sided separation.
PRESETS = {
    "desk-200": dict(n=200, clique_size=14, k=14, delta=0.2, trials=20),
    "desk-200-k35": dict(n=200, clique_size=35, k=35, delta=0.5, trials=20),
    "desk-400": dict(n=400, clique_size=20, k=20, delta=0.2, trials=20),
}


def asym_preset(n, eps):
    """Formula-driven parameterization k = n^((1-2e)(1-e)), t = n^(1/2-e),
    delta = n^(-5e/4 + e^2/2), rounded into valid desk-scale ranges.

    At practical n these exponent choices give small constants; the preset
    exists to show the shape of the hard regime, not to reach it.
    """
    n = int(n)
    if n < 4:
        raise ValueError(f"n too small for the parameterization, got {n}")
    eps = float(eps)
    if not 0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    k = max(2, min(n, round(n ** ((1 - 2 * eps) * (1 - eps)))))
    t = max(2, min(n, round(n ** (0.5 - eps))))
    delta = float(n ** (-5 * eps / 4 + eps * eps / 2))
    return dict(n=n, clique_size=t, k=k, delta=delta, trials=20)
