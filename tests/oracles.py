"""Independent oracles the tests check library output against.

Everything here deliberately avoids the code paths used by the package:
eigenvalues come from exact characteristic polynomials root-solved in
high precision, restricted-isometry maxima from per-subset singular values,
clique checks from brute-force enumeration, exact definiteness from Gaussian
elimination over the rationals or from characteristic polynomial signs.
"""

import itertools
from fractions import Fraction

import mpmath
import numpy as np


def charpoly_exact(m):
    """Characteristic polynomial coefficients of a square matrix with
    dyadic-rational entries, by Faddeev-LeVerrier over Fractions.

    Returns [1, c1, ..., cn] with p(x) = x^n + c1 x^(n-1) + ... + cn, exact.
    """
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    coeffs = [Fraction(1)]
    mk = [row[:] for row in a]
    for k in range(1, n + 1):
        ck = -sum(mk[i][i] for i in range(n)) / k
        coeffs.append(ck)
        if k == n:
            break
        for i in range(n):
            mk[i][i] += ck
        mk = [
            [sum(a[i][t] * mk[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return coeffs


def is_positive_definite_rational(m):
    """Exact positive definiteness of a symmetric integer matrix: symmetric
    Gaussian elimination over Fractions, where a pivot <= 0 means no."""
    n = len(m)
    a = [[Fraction(int(x)) for x in row] for row in m]
    for i in range(n):
        piv = a[i][i]
        if piv <= 0:
            return False
        for r in range(i + 1, n):
            f = a[r][i] / piv
            if f:
                ar, ai = a[r], a[i]
                for c in range(i + 1, n):
                    if ai[c]:
                        ar[c] -= f * ai[c]
    return True


def is_positive_definite_charpoly(m):
    """Exact positive definiteness of a symmetric matrix: all eigenvalues are
    positive iff the characteristic polynomial's coefficients strictly
    alternate in sign (its roots are real).  Small matrices only."""
    coeffs = charpoly_exact(m)
    return all(c * (-1) ** i > 0 for i, c in enumerate(coeffs))


def eigvals_oracle(m):
    """Eigenvalues of a symmetric matrix with float entries, descending,
    via exact characteristic polynomial + 60-digit root finding."""
    coeffs = charpoly_exact(m)
    with mpmath.workdps(60):
        poly = [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator) for c in coeffs]
        roots = mpmath.polyroots(poly, maxsteps=200, extraprec=120)
        vals = sorted((float(mpmath.re(r)) for r in roots), reverse=True)
    return np.array(vals)


def svd_rip_oracle(phi, k):
    """Exact RIP parameter at order k from per-subset singular values:
    delta_T = max(sigma_max^2 - 1, 1 - sigma_min^2), scanned over all subsets.

    Returns (value, first argmax subset in lexicographic order).
    """
    phi = np.asarray(phi, dtype=np.float64)
    best = -1.0
    best_sub = None
    for sub in itertools.combinations(range(phi.shape[1]), k):
        sv = np.linalg.svd(phi[:, sub], compute_uv=False)
        dev = max(sv[0] ** 2 - 1.0, 1.0 - sv[-1] ** 2)
        if dev > best:
            best = dev
            best_sub = sub
    return best, best_sub


def rayleigh_lower_bound(m, trials=100_000, seed=0):
    """sup |x^T (M - I) x| over random unit vectors; a lower bound on the
    spectral deviation that converges from below."""
    m = np.asarray(m, dtype=np.float64)
    shifted = m - np.eye(m.shape[0])
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((trials, m.shape[0]))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return float(np.abs(np.einsum("ti,ij,tj->t", x, shifted, x)).max())


def has_clique_bruteforce(g, k):
    """Does the graph contain a k-clique?  Enumeration; tiny graphs only."""
    for sub in itertools.combinations(range(g.n), k):
        if all(g.adj[u, v] for u, v in itertools.combinations(sub, 2)):
            return True
    return False


def hadamard(n):
    """Sylvester Hadamard matrix of power-of-two order n."""
    if n & (n - 1) or n < 1:
        raise ValueError(f"order must be a power of two, got {n}")
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h
