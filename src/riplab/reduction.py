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
import warnings
from dataclasses import dataclass

import numpy as np

from .certify import DEFAULT_BUDGET, LOWER_BOUND, Witness, exact_rip
from .linalg import PSD_TOL, as_matrix, cholesky_psd, sym_eigenvalues
from .randgen import Seed, gen_bernoulli_sensing, gen_gnp_half, plant_clique

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
    """Reduction constant and PSD tolerance.

    The default c = 0.3 keeps 3c < 1, the regime where I + c*A/sqrt(n) from a
    random graph is almost surely factorable; values at or above 1/3 are
    allowed but draw a warning.
    """

    c: float = 0.3
    psd_tol: float = PSD_TOL

    def __post_init__(self):
        if not 0 <= self.c < math.inf:
            raise ValueError(f"reduction constant must be finite and nonnegative, got {self.c}")
        if not 0 <= self.psd_tol < math.inf:
            raise ValueError(f"psd tolerance must be finite and nonnegative, got {self.psd_tol}")
        if not 0 < self.c < 1 / 3:
            warnings.warn(
                f"reduction constant c = {self.c} is outside the standard range "
                "(0, 1/3); the factorable-with-high-probability regime needs 3c < 1",
                stacklevel=2,
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


def cholesky_reduce(g, params=None):
    """Map a graph to its reduction matrix C with C^T C = I + c*A/sqrt(n).

    Returns the n x n zero matrix when I + c*A/sqrt(n) has an eigenvalue
    below -psd_tol; downstream checks treat that as an automatic isometry
    violation.
    """
    if params is None:
        params = ReductionParams()
    n = g.n
    b = np.eye(n) + (params.c / math.sqrt(n)) * signed_adjacency(g)
    factor = cholesky_psd(b, tol=params.psd_tol)
    if factor is None:
        return np.zeros((n, n))
    return factor


def clique_witness(g, members, params=None):
    """Witness vector x_i = 1/sqrt(k) on a k-clique, zero elsewhere.

    Verifies that ``members`` induces a clique (so x^T A x = k-1 holds
    exactly, by counting: k(k-1) ordered pairs, every entry +1, divided
    by k) and records the implied deviation c(k-1)/sqrt(n) of
    ||C(G) x||^2 from 1.
    """
    if params is None:
        params = ReductionParams()
    subset = tuple(sorted(int(v) for v in members))
    if len(subset) < 2:
        raise ValueError(f"a clique witness needs at least 2 vertices, got {len(subset)}")
    if (missing := g.missing_edge(subset)) is not None:
        raise ValueError(f"not a clique: missing edge {missing}")
    k = len(subset)
    vec = np.zeros(g.n)
    vec[list(subset)] = 1.0 / math.sqrt(k)
    deviation = params.c * (k - 1) / math.sqrt(g.n)
    return Witness(subset, vec, deviation)


def verify_violation(c_matrix, witness, delta, n, c, from_clique=False):
    """True iff the witness exhibits | ||C x||^2 - 1 | > delta.

    When ``from_clique`` is set and the columns of C touching the witness
    support are not all zero, additionally insists that ||C x||^2 equals the
    clique identity value 1 + c(k-1)/sqrt(n) within 1e-8, raising otherwise
    — a wrong identity means the inputs are inconsistent, not a negative
    verdict.  A support wiped out by the zero-matrix convention gives
    ||C x||^2 = 0, deviation 1, hence a violation for every delta < 1.
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
    return abs(_image_norm_sq(mat, witness, n, c, from_clique) - 1.0) > delta


def _image_norm_sq(mat, witness, n, c, from_clique):
    """||C x||^2 for the witness vector x, checked against the clique identity
    as :func:`verify_violation` describes."""
    image = mat @ witness.vector
    value = float(image @ image)
    if from_clique and np.any(mat[:, list(witness.subset)]):
        k = len(witness.subset)
        expected = 1.0 + float(c) * (k - 1) / math.sqrt(int(n))
        if abs(value - expected) > CLIQUE_IDENTITY_TOL:
            raise ValueError(
                f"clique witness identity failed: ||Cx||^2 = {value!r}, "
                f"expected {expected!r} for k={k}, n={n}, c={c}"
            )
    return value


# When the computed lambda_1 is this close to the threshold, floating point
# cannot be trusted to sort out the comparison (complete graphs land on the
# boundary and LAPACK rounds a few ulp either way); such cases escalate to
# exact integer arithmetic.
_REFUTER_BAND = 1e-6


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


def _lambda1_reaches(signed, k):
    """(lambda_1, lambda_1 >= k-1) for a signed adjacency matrix, the
    comparison decided as :func:`spectral_clique_refuter` describes."""
    lam1 = float(sym_eigenvalues(signed)[0])
    if abs(lam1 - (k - 1)) <= _REFUTER_BAND:
        shifted = (k - 1) * np.eye(len(signed), dtype=np.int64) - signed.astype(np.int64)
        return lam1, not _is_positive_definite_exact(shifted)
    return lam1, lam1 >= k - 1


def spectral_clique_refuter(g, k):
    """Refuter with exact soundness: "yes" iff lambda_1(A) >= k-1.

    A k-clique forces lambda_1 >= k-1 through its witness vector, so
    "no-clique" is only ever returned for graphs that really have no
    k-clique.  The eigenvalue itself comes from floating point; when it
    lands within 1e-6 of the threshold the comparison is re-decided exactly,
    in integer arithmetic (fraction-free elimination), as "(k-1)*I - A
    positive definite?" — so knife-edge inputs (complete graphs, say) still
    get the mathematically exact answer rather than a rounding accident.
    """
    k = int(k)
    if k < 2:
        raise ValueError(f"clique size must be at least 2, got {k}")
    return YES if _lambda1_reaches(signed_adjacency(g), k)[1] else NO_CLIQUE


def block_compose(a, b):
    """Block-diagonal composition diag(A, B) with zero off-diagonal blocks."""
    a = as_matrix(a, "first block")
    b = as_matrix(b, "second block")
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


def _pad_columns(witness, total_cols):
    # same support, zeros on the appended coordinates
    full = np.zeros(total_cols)
    full[: len(witness.vector)] = witness.vector
    return Witness(witness.subset, full, witness.deviation)


def run_distinguishing_experiment(
    n,
    clique_size,
    k,
    delta,
    params=None,
    trials=20,
    base_seed=None,
    rect_cols=None,
    null_statistic=STAT_LAMBDA1,
    budget=DEFAULT_BUDGET,
):
    """Two-arm planted-clique experiment against the reduction pipeline.

    Each trial draws a null graph G ~ G(n, 1/2) and an independent graph
    with a planted clique of ``clique_size``; both are reduced.  The planted
    arm is judged by its explicit clique witness; the null arm by the
    spectral refuter's rule at order ``k`` (``lambda1`` statistic, threshold
    k-1), or by exhaustive enumeration with early exit at ``delta``
    (``exact`` statistic) when the subset count fits the budget.  When
    ``rect_cols`` is given, each matrix so judged is block-composed with an
    n x rect_cols Bernoulli sensing matrix into a 2n x (n + rect_cols) frame;
    the ``lambda1`` arm judges no matrix.  ``budget`` bounds every exact null
    scan, that of a zero reduction too.

    A zero reduction matrix is always classed as a violation: the ``lambda1``
    arm tests for it, and the ``exact`` scan of it stops at its first subset
    with deviation exactly 1, a ``LowerBound`` over any delta < 1.  The planted
    arm is a guaranteed detection whenever delta < c*(min(clique_size,k)-1)/
    sqrt(n); outside that range a warning is issued and the one-sided
    guarantee no longer applies.
    """
    if params is None:
        params = ReductionParams()
    if base_seed is None:
        raise ValueError("base_seed is required; randomness only enters through seeds")
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

    records = []
    for t in range(trials):
        null_seed = base_seed.child(t, 0)
        g0 = gen_gnp_half(n, null_seed)
        c0 = cholesky_reduce(g0, params)
        if null_statistic == STAT_LAMBDA1:
            stat0, reaches = _lambda1_reaches(signed_adjacency(g0), k)
            flagged0 = reaches or not c0.any()
        else:
            if rect_cols is not None:
                c0 = block_compose(c0, gen_bernoulli_sensing(n, rect_cols, null_seed))
            rep0, _ = exact_rip(c0, k, threshold=delta, budget=budget)
            stat0 = rep0.value
            flagged0 = rep0.direction == LOWER_BOUND
        records.append(
            TrialRecord(null_seed, ARM_NULL, stat0, VIOLATES if flagged0 else PLAUSIBLE)
        )

        planted_seed = base_seed.child(t, 1)
        instance = plant_clique(gen_gnp_half(n, planted_seed), clique_size, planted_seed)
        c1 = cholesky_reduce(instance.graph, params)
        witness = clique_witness(instance.graph, instance.planted[:witness_size], params)
        if rect_cols is not None:
            c1 = block_compose(c1, gen_bernoulli_sensing(n, rect_cols, planted_seed))
            witness = _pad_columns(witness, n + rect_cols)
        stat1 = abs(_image_norm_sq(c1, witness, n, params.c, from_clique=True) - 1.0)
        flagged1 = stat1 > delta
        records.append(
            TrialRecord(planted_seed, ARM_PLANTED, stat1, VIOLATES if flagged1 else PLAUSIBLE)
        )

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
