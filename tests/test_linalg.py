import math

import numpy as np
import pytest

from riplab import linalg
from riplab.certify import coherence, exact_rip, subset_deviation
from riplab.linalg import (
    PSD_TOL,
    as_matrix,
    cholesky_psd,
    gram,
    proved_within,
    sym_eigenvalues,
)
from riplab.randgen import Seed, gen_model_a

from oracles import eigvals_oracle


def dyadic_symmetric(n, seed):
    # symmetric matrix with entries on a 1/16 grid: exact as Fractions
    rng = np.random.default_rng(seed)
    m = rng.integers(-24, 25, size=(n, n)) / 16.0
    return (m + m.T) / 2.0


def test_identity_eigenvalues():
    np.testing.assert_array_equal(sym_eigenvalues(np.eye(4)), np.ones(4))


def test_exchange_matrix_eigenvalues():
    w = sym_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-15)


def test_eigenvalues_match_charpoly_oracle():
    """Eigenvalues agree with exact-characteristic-polynomial roots to 1e-9."""
    for seed in range(12):
        m = dyadic_symmetric(5, seed)
        got = sym_eigenvalues(m)
        want = eigvals_oracle(m)
        assert np.max(np.abs(got - want)) < 1e-9


def test_eigenvalues_sorted_descending_full_length():
    for seed in range(5):
        w = sym_eigenvalues(dyadic_symmetric(7, seed))
        assert len(w) == 7
        assert np.all(np.diff(w) <= 0)


def test_eigenvalue_sum_matches_trace():
    for seed in range(10):
        m = dyadic_symmetric(6, seed)
        assert abs(sym_eigenvalues(m).sum() - np.trace(m)) <= 1e-8 * 6


def test_eigenvalues_permutation_invariant():
    m = dyadic_symmetric(6, 3)
    perm = [4, 0, 5, 2, 1, 3]
    w1 = sym_eigenvalues(m)
    w2 = sym_eigenvalues(m[np.ix_(perm, perm)])
    assert np.max(np.abs(w1 - w2)) < 1e-9


def test_rejects_nonsquare_and_asymmetric_and_nonfinite():
    with pytest.raises(ValueError):
        sym_eigenvalues(np.ones((2, 3)))
    bad = np.array([[1.0, 2.0], [2.5, 1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eigenvalues(bad)
    with pytest.raises(ValueError, match="non-finite"):
        sym_eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        as_matrix(np.array([1.0, 2.0]))


def test_symmetry_gate_is_exact_and_passes_input_unchanged():
    # one ulp of asymmetry is rejected
    m = np.array([[1.0, np.nextafter(0.5, 1.0)], [0.5, 1.0]])
    for f in (sym_eigenvalues, cholesky_psd):
        with pytest.raises(ValueError, match="not symmetric"):
            f(m)
    # an exactly symmetric input reaches LAPACK as it is
    n = 50
    for seed in range(4):
        b = np.eye(n) + (0.3 / np.sqrt(n)) * gen_model_a(n, Seed(seed))
        np.testing.assert_array_equal(sym_eigenvalues(b), np.linalg.eigvalsh(b)[::-1])
        np.testing.assert_array_equal(cholesky_psd(b), np.linalg.cholesky(b).T)


def test_spectral_deviation_examples():
    # each example M is the Gram matrix of its Cholesky factor phi = L^T
    for m, deviation in [(np.eye(3), 0.0),
                         (np.array([[1.0, 0.5], [0.5, 1.0]]), 0.5),
                         (np.diag([1.3, 0.9]), 0.3)]:
        phi = np.linalg.cholesky(m).T
        got = subset_deviation(phi, range(len(m)))
        assert abs(got - deviation) < 1e-15


def test_gram_matches_inner_products():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((2, 3))
    g = gram(m)
    for i in range(3):
        for j in range(3):
            assert abs(g[i, j] - m[:, i] @ m[:, j]) < 1e-12
    assert np.array_equal(g, g.T)


@pytest.mark.parametrize("layout", ["C", "F", "row-strided", "column-strided", "strided"])
def test_gram_is_exactly_symmetric(layout):
    # The exact scan's Gershgorin screen reads the upper triangle of the Gram
    # and eigvalsh its lower one, so the screen is sound only if the two agree
    # bit for bit.  At this size a strided product is not symmetric by itself.
    base = np.random.default_rng(5).standard_normal((256, 900))
    a = {
        "C": np.ascontiguousarray(base[:128, :300]),
        "F": np.asfortranarray(base[:128, :300]),
        "row-strided": base[::2, :300],
        "column-strided": base[:128, ::3],
        "strided": base[::2, ::3],
    }[layout]
    g = gram(a)
    assert (g == g.T).all()


def _draw(dist, rows, cols, seed):
    rng = np.random.default_rng([seed, rows, cols])
    if dist == "bernoulli":
        return rng.choice([-1.0, 1.0], size=(rows, cols)) / math.sqrt(rows)
    return rng.standard_normal((rows, cols))


def _strided(a):
    big = np.zeros((2 * a.shape[0], 2 * a.shape[1]))
    big[::2, ::2] = a
    return big[::2, ::2]


def _has_product_bits(form, a):
    """Whether form(a) is N x N, exactly symmetric and bit for bit a.T @ a,
    formed on a itself when it is C- or F-contiguous, else on a C copy."""
    c = a if a.flags.c_contiguous or a.flags.f_contiguous else np.ascontiguousarray(a)
    g = form(a)
    return g.shape == (a.shape[1],) * 2 and bool((g == g.T).all()) and g.tobytes() == (c.T @ c).tobytes()


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray, _strided],
                         ids=["C", "F", "strided"])
@pytest.mark.parametrize("cols", [36, 128, 160, 200, 500, 512, 1000, 1024, 2048])
@pytest.mark.parametrize("dist", ["bernoulli", "gaussian"])
def test_gram_has_the_bits_of_the_product(dist, cols, layout):
    # gram writes into row-padded storage for most N (not 200 or 1000, whose
    # rows are already an odd number of cache lines); the bits must not move
    a = layout(_draw(dist, 64, cols, 1))
    assert _has_product_bits(gram, a)


@pytest.mark.parametrize(("dist", "rows", "cols"), [("bernoulli", 20, 36), ("gaussian", 100, 500)])
def test_a_gemm_on_a_transposed_copy_fails_the_bit_check(dist, rows, cols):
    # the check above tells numpy's symmetric rank-k update from another
    # product of the same operands
    a = _draw(dist, rows, cols, 1)
    assert _has_product_bits(gram, a)
    assert not _has_product_bits(lambda x: np.ascontiguousarray(x.T) @ x, a)


def test_gram_refuses_an_overflowing_product():
    # finite entries whose Gram overflows: inf on the diagonal, and
    # 1e400 - 1e400 = inf - inf = NaN between the first two columns
    phi = np.array([[1e200, 1e200, 1.0], [1e200, -1e200, 2.0]])
    for call in (gram, coherence, lambda m: exact_rip(m, 2)):
        with pytest.raises(ValueError, match="Gram matrix"):
            call(phi)


def test_gram_scans_the_product_only_beyond_the_input_bound(monkeypatch):
    """Inside rows * max|a_ij|^2 <= max/4 the product cannot overflow and is
    not scanned; beyond it a finite product is scanned and kept, and an
    overflowing one is refused."""
    scalar_checks = []
    isfinite = np.isfinite
    monkeypatch.setattr(linalg.np, "isfinite",
                        lambda x: scalar_checks.append(np.ndim(x) == 0) or isfinite(x))
    rows = 3
    edge = math.sqrt(np.finfo(np.float64).max / 4 / rows)
    inside = np.full((rows, 2), np.nextafter(edge, 0.0))
    assert rows * inside[0, 0] * inside[0, 0] <= linalg._GRAM_SAFE
    g = gram(inside)
    assert np.isfinite(g).all() and g[0, 0] == g[0, 1] > np.finfo(np.float64).max / 5
    assert not any(scalar_checks)
    # one entry 1e154: rows * 1e308 lies beyond the bound, the product does not overflow
    beyond = np.zeros((rows, 2))
    beyond[0, 0] = 1e154
    assert not rows * 1e154 * 1e154 <= linalg._GRAM_SAFE
    assert gram(beyond)[0, 0] == 1e154 * 1e154 and any(scalar_checks)
    with pytest.raises(ValueError, match="Gram matrix"):
        gram(np.full((rows, 2), 4 * edge))


def test_gram_unit_column():
    g = gram(np.array([[3.0], [4.0]]) / 5.0)
    assert abs(g[0, 0] - 1.0) < 1e-15


def test_gram_is_psd():
    for seed in range(10):
        m = np.random.default_rng(seed).standard_normal((4, 6))
        w = sym_eigenvalues(gram(m))
        assert w[-1] >= -1e-10


def test_cholesky_identity():
    r = cholesky_psd(np.eye(5))
    np.testing.assert_array_equal(r, np.eye(5))


def test_cholesky_roundtrip_2x2():
    b = np.array([[1.0, 0.5], [0.5, 1.0]])
    r = cholesky_psd(b)
    assert np.max(np.abs(r.T @ r - b)) <= 1e-8


def test_cholesky_rejects_indefinite():
    assert cholesky_psd(np.array([[1.0, 2.0], [2.0, 1.0]])) is None


def test_cholesky_fallback_on_singular_psd():
    """Rank-deficient PSD matrices take the eigenvalue fallback and still
    return an upper-triangular factor with nonnegative diagonal."""
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.standard_normal((5, 2))
        b = x @ x.T  # rank 2, exactly singular
        b = (b + b.T) / 2.0
        r = cholesky_psd(b)
        assert r is not None
        assert np.max(np.abs(r.T @ r - b)) <= 1e-8
        assert np.max(np.abs(np.tril(r, -1))) == 0.0
        assert np.all(np.diag(r) >= 0.0)


def test_cholesky_triangular_shape_always():
    for seed in range(8):
        m = np.random.default_rng(seed).standard_normal((6, 6))
        b = gram(m) + np.eye(6)
        r = cholesky_psd(b)
        assert r is not None and r.shape == (6, 6)
        assert np.max(np.abs(np.tril(r, -1))) == 0.0
        assert np.all(np.diag(r) >= 0.0)
        assert np.max(np.abs(r.T @ r - b)) <= 1e-8


def test_cholesky_tolerance_boundary():
    # eigenvalue at -PSD_TOL/2 is clipped; at -20*PSD_TOL it is rejected
    q = np.linalg.qr(np.random.default_rng(1).standard_normal((4, 4)))[0]
    near = q @ np.diag([1.0, 1.0, 1.0, -PSD_TOL / 2]) @ q.T
    far = q @ np.diag([1.0, 1.0, 1.0, -PSD_TOL * 20]) @ q.T
    assert cholesky_psd((near + near.T) / 2) is not None
    assert cholesky_psd((far + far.T) / 2) is None


def test_model_a_eigenvalues_against_oracle():
    # integer entries: the exact-charpoly oracle applies directly
    a = gen_model_a(6, Seed(11))
    got = sym_eigenvalues(a)
    want = eigvals_oracle(a)
    assert np.max(np.abs(got - want)) < 1e-9


def _stack(mats):
    """A (B, k, k) array of matrices as a (k, k, B) stack."""
    return np.moveaxis(np.asarray(mats, dtype=np.float64), 0, -1)


def _deviations(mats):
    w = np.linalg.eigvalsh(mats)
    return np.maximum(np.abs(w[:, 0] - 1.0), np.abs(w[:, -1] - 1.0))


def test_proof_settles_what_the_eigenvalues_settle():
    """Gram matrices of random k-column matrices, k = 1 to 6: every matrix
    proved has its eigenvalues within c of 1, and every one whose eigvalsh
    deviation lies below c by a relative 1e-6 is proved, from either end
    of the spectrum."""
    rng = np.random.default_rng(7)
    for k in range(1, 7):
        a = rng.standard_normal((3000, 3 * k, k)) / math.sqrt(3 * k)
        mats = a.transpose(0, 2, 1) @ a
        mats = (mats + mats.transpose(0, 2, 1)) / 2  # exactly symmetric
        devs = _deviations(mats)
        for c in (0.3, 0.6, 1.0, 1.5, 3.0):
            proved = proved_within(_stack(mats), c)
            assert (devs[proved] < c).all(), (k, c)
            assert proved[devs < c * (1 - 1e-6)].all(), (k, c)
            assert 0 < proved.sum() or c < devs.min()


def test_proof_refuses_matrices_on_or_over_the_bound():
    """Matrices whose deviation is exactly c, or lies a few ulps above it,
    are never proved: I + a(J - I) for dyadic a of either sign (eigenvalues
    1 + a(k-1) and 1 - a, so deviation |a|(k-1), reached at the top or at
    the bottom of the spectrum), and singular Gram matrices of duplicated
    columns (smallest eigenvalue exactly 0, deviation at least 1)."""
    for k in range(2, 7):
        for m in range(1, 160):
            a = m * 2.0**-10
            mats = [np.eye(k) + sign * a * (np.ones((k, k)) - np.eye(k)) for sign in (1, -1)]
            c = a * (k - 1)  # exact, and so are 1 + c and 1 - c
            for _ in range(4):
                assert not proved_within(_stack(mats), c).any(), (k, m, c)
                c = np.nextafter(c, 0.0)
    rng = np.random.default_rng(11)
    for k in range(2, 7):
        g = gram(rng.standard_normal((8, k - 1)) * rng.uniform(0.5, 0.9, k - 1))
        mats = []
        for _ in range(400):
            idx = np.sort(np.append(rng.permutation(k - 1), rng.integers(k - 1)))
            mats.append(g[np.ix_(idx, idx)])  # two equal rows and columns
        for c in (1.0, np.nextafter(1.0, 0.0), 0.9):
            assert not proved_within(_stack(mats), c).any(), (k, c)


def test_proof_needs_a_positive_finite_cutoff():
    """An infinite, NaN, zero or negative cutoff proves nothing, not even
    the identity, which any cutoff in (0, 2^1000] proves; the stack is
    left as it was."""
    eye = _stack([np.eye(3)] * 4)
    for c in (math.inf, math.nan, 0.0, -0.5, -math.inf, 2.0**1001):
        assert not proved_within(eye, c).any(), c
    for c in (1e-12, 0.5, 2.0**1000):
        assert proved_within(eye, c).all(), c
    assert np.array_equal(eye, _stack([np.eye(3)] * 4))
