import itertools
import math

import numpy as np
import pytest

from riplab import certify
from riplab.certify import (
    EXACT_MAX,
    EXHAUSTIVE,
    LOWER_BOUND,
    WITNESS_LB,
    BudgetExceededError,
    RipReport,
    UnitColumnError,
    coherence,
    exact_rip,
    lazy_certify,
    lift_order,
    require_unit_columns,
    subset_deviation,
)
from riplab.linalg import gram
from riplab.randgen import Seed, gen_bernoulli_sensing
from riplab.reduction import block_compose

from oracles import rayleigh_lower_bound, svd_rip_oracle


def test_coherence_examples():
    assert coherence(np.eye(3)) == 0.0
    # two unit vectors at 60 degrees
    phi = np.array([[1.0, 0.5], [0.0, np.sqrt(3) / 2]])
    assert abs(coherence(phi) - 0.5) < 1e-15
    with pytest.raises(ValueError):
        coherence(np.ones((3, 1)))  # needs two columns


def test_subset_deviation_identity_and_repeats():
    phi = np.eye(4)
    assert subset_deviation(phi, (0, 2)) == 0.0
    phi2 = np.array([[1.0, 1.0], [0.0, 0.0]])  # identical unit columns
    assert abs(subset_deviation(phi2, (0, 1)) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        subset_deviation(phi, (2, 0))  # must be strictly increasing
    with pytest.raises(ValueError):
        subset_deviation(phi, (0, 9))


def test_subset_deviation_is_max_rayleigh_deviation():
    """Randomized unit vectors never beat the reported operator norm, and
    get within 1e-3 of it."""
    rng = np.random.default_rng(5)
    for _ in range(5):
        phi = rng.standard_normal((4, 3))
        phi /= np.linalg.norm(phi, axis=0)
        dev = subset_deviation(phi, (0, 1, 2))
        g = phi.T @ phi
        lo = rayleigh_lower_bound((g + g.T) / 2.0)
        assert lo <= dev + 1e-12
        assert dev - lo < 1e-3


def test_exact_rip_identity_is_zero():
    rep, wit = exact_rip(np.eye(5), 3)
    assert rep.value == 0.0
    assert rep.direction == EXACT_MAX and rep.method == EXHAUSTIVE
    assert rep.subsets_examined == math.comb(5, 3)
    assert wit.subset == (0, 1, 2)


def test_exact_rip_order_two_equals_coherence():
    for s in range(8):
        phi = gen_bernoulli_sensing(8, 10, Seed(s))
        rep, _ = exact_rip(phi, 2)
        assert abs(rep.value - coherence(phi)) <= 1e-10


def test_exact_rip_against_svd_oracle():
    phi = gen_bernoulli_sensing(6, 12, Seed(9))
    rep, wit = exact_rip(phi, 3)
    assert rep.value == 1.1240937744230055  # frozen
    want, _ = svd_rip_oracle(phi, 3)
    assert abs(rep.value - want) <= 1e-9
    # witness consistency: its vector actually achieves the reported deviation
    x = wit.vector
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
    assert abs(abs(np.linalg.norm(phi @ x) ** 2 - 1.0) - rep.value) <= 1e-9
    assert all(x[i] == 0.0 for i in range(12) if i not in wit.subset)


def test_exact_rip_random_shapes_against_oracle():
    rng = np.random.default_rng(0)
    for _ in range(6):
        phi = rng.standard_normal((5, 8))
        phi /= np.linalg.norm(phi, axis=0)
        k = int(rng.integers(1, 5))
        rep, _ = exact_rip(phi, k)
        want, _ = svd_rip_oracle(phi, k)
        assert abs(rep.value - want) <= 1e-9


def test_exact_rip_monotone_in_order():
    phi = gen_bernoulli_sensing(6, 9, Seed(4))
    vals = [exact_rip(phi, k)[0].value for k in range(1, 7)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_exact_rip_invariances():
    phi = gen_bernoulli_sensing(5, 8, Seed(2))
    base, _ = exact_rip(phi, 3)
    rng = np.random.default_rng(1)
    perm = rng.permutation(8)
    signs = np.where(rng.integers(0, 2, 8) == 1, 1.0, -1.0)
    rep, _ = exact_rip(phi[:, perm] * signs, 3)
    assert abs(rep.value - base.value) <= 1e-10
    # orthogonal row mixing does not change the gram matrix
    q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    rep2, _ = exact_rip(q @ phi, 3)
    assert abs(rep2.value - base.value) <= 1e-10


def test_threshold_stops_early_with_lower_bound():
    phi = gen_bernoulli_sensing(6, 12, Seed(9))
    rep, wit = exact_rip(phi, 3, threshold=0.9)
    assert rep.direction == LOWER_BOUND and rep.method == WITNESS_LB
    assert rep.value > 0.9
    assert rep.subsets_examined == 2  # frozen: second subset already exceeds
    assert wit.subset == (0, 1, 3)
    assert rep.value == 1.1240937744230046
    # a threshold nothing exceeds leaves the full exact scan untouched
    rep2, _ = exact_rip(phi, 3, threshold=2.0)
    assert rep2.direction == EXACT_MAX
    assert rep2.subsets_examined == math.comb(12, 3)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="threshold must be finite"):
            exact_rip(phi, 3, threshold=bad)


def test_budget_error_names_the_count():
    phi = gen_bernoulli_sensing(4, 30, Seed(0))
    with pytest.raises(BudgetExceededError, match=r"C\(30,5\) = 142506"):
        exact_rip(phi, 5, budget=1000)
    with pytest.raises(TypeError):  # there is no unbounded scan
        exact_rip(phi, 2, budget=None)
    with pytest.raises(ValueError):
        exact_rip(phi, 0)
    with pytest.raises(ValueError):
        exact_rip(phi, 31)


def _reference_scans(phi, k):
    """Unscreened scans: batched eigvalsh over all C(N, k) subsets, then for
    each threshold (none, negative, below the max, between the top two
    values, the max, above it) the first subset over it, else the first
    argmax, as (threshold, value, subset, vector, direction, examined)."""
    g = gram(phi)
    combos = np.array(list(itertools.combinations(range(phi.shape[1]), k)))
    w = np.linalg.eigvalsh(g[combos[:, :, None], combos[:, None, :]])
    devs = np.maximum(np.abs(w[:, 0] - 1.0), np.abs(w[:, -1] - 1.0))
    values = np.unique(devs)
    top = float(values[-1])
    between = (values[-2] + values[-1]) / 2 if len(values) > 1 else top / 2
    for threshold in (None, -0.5, 0.5 * top, between, top, top + 0.25):
        over = np.flatnonzero(devs > threshold) if threshold is not None else []
        if len(over):
            rank, direction, examined = int(over[0]), LOWER_BOUND, int(over[0]) + 1
        else:
            rank, direction, examined = int(np.argmax(devs)), EXACT_MAX, len(devs)
        subset = combos[rank]
        ws, v = np.linalg.eigh(g[np.ix_(subset, subset)])
        vec = v[:, int(np.argmax(np.abs(ws - 1.0)))].copy()
        if vec[int(np.argmax(np.abs(vec)))] < 0.0:
            vec = -vec
        vec /= np.linalg.norm(vec)
        full = np.zeros(phi.shape[1])
        full[subset] = vec
        yield threshold, float(devs[rank]), tuple(int(i) for i in subset), full, direction, examined


def _sweep_matrices():
    rng = np.random.default_rng(2024)
    for s in range(2):
        yield gen_bernoulli_sensing(6, 16, Seed(s))  # unit columns
        yield rng.standard_normal((5, 15)) * rng.uniform(0.2, 3.0, 15)  # non-unit
        base = gen_bernoulli_sensing(6, 8, Seed(10 + s))
        yield base[:, rng.integers(0, 8, 16)]  # duplicated columns: exact ties
        yield block_compose(np.eye(3), gen_bernoulli_sensing(4, 12, Seed(20 + s)))
        yield block_compose(gen_bernoulli_sensing(5, 10, Seed(30 + s)), 1.5 * np.eye(4))
        # near-duplicate pairs at ranks 0 and C(24,2) - 1, in different chunks:
        # the closer, later pair beats the earlier by far less than 1e-3, and
        # its bound is nearly tight
        near = rng.standard_normal((5, 24))
        near[:, 1] = near[:, 0] + 1e-3 * rng.standard_normal(5)
        near[:, 23] = near[:, 22] + 1e-4 * rng.standard_normal(5)
        yield near / np.linalg.norm(near, axis=0)


def _assert_blocks_are_combinations(n, k):
    combos = itertools.combinations(range(n), k)
    next_start = 0
    for start, block in certify._subset_blocks(n, k):
        assert start == next_start and block.dtype == np.int64
        want = np.array(list(itertools.islice(combos, len(block))), dtype=np.int64)
        assert np.array_equal(block, want.reshape(len(block), k))
        next_start += len(block)
    assert next_start == math.comb(n, k) and next(combos, None) is None


def test_subset_blocks_match_itertools_small():
    for n in range(1, 13):
        for k in range(1, n + 1):
            _assert_blocks_are_combinations(n, k)


@pytest.mark.parametrize("n, k, width", [
    (49, 3, 1), (50, 3, 2),  # 16 C(50, 2) = C(50, 3): the scan-size cap, just above and at
    (31, 6, 4), (32, 6, 3),  # C(31, 4) = 31465 and C(32, 4) = 35960 around the 2^15-row cap
])
def test_subset_blocks_match_itertools_at_table_caps(n, k, width):
    assert certify._suffix_width(n, k) == width
    assert len(certify._suffix_table(n, width)) == math.comb(n, width) <= certify._SUFFIX_ROWS
    _assert_blocks_are_combinations(n, k)


def test_screened_scan_matches_unscreened_reference(monkeypatch):
    """The Gershgorin screen changes no value, witness, direction or count
    for any threshold, and does skip eigensolves."""
    solved = []
    solve = certify._block_deviations
    monkeypatch.setattr(certify, "_block_deviations",
                        lambda g, block: solved.append(len(block)) or solve(g, block))
    full_examined = full_solved = 0
    for phi in _sweep_matrices():
        for k in range(1, 6):
            for threshold, value, subset, vector, direction, examined in _reference_scans(phi, k):
                del solved[:]
                rep, wit = exact_rip(phi, k, threshold=threshold)
                assert rep.value == value
                assert wit.subset == subset
                assert np.array_equal(wit.vector, vector)
                assert rep.direction == direction
                assert rep.subsets_examined == examined
                if threshold is None:
                    full_examined += examined
                    full_solved += sum(solved)
    assert full_solved < full_examined / 2  # unscreened, every examined subset is solved


def test_threshold_hit_materialises_first_chunk_only(monkeypatch):
    phi = gen_bernoulli_sensing(16, 200, Seed(1))
    phi[:, 4] = phi[:, 0]  # subset (0, 1, 4), rank 2, has deviation >= 1
    rows = []
    subset_blocks = certify._subset_blocks

    def recording(n, k):
        for start, block in subset_blocks(n, k):
            rows.append(len(block))
            yield start, block

    monkeypatch.setattr(certify, "_subset_blocks", recording)
    rep, wit = exact_rip(phi, 3, threshold=0.99)
    assert rep.direction == LOWER_BOUND
    assert wit.subset == (0, 1, 4) and rep.subsets_examined == 3
    assert len(rows) == 1 and rows[0] <= 256 < math.comb(200, 3)


def test_lift_order_examples():
    assert lift_order(0.05, 3, 5) == 0.1
    eps = 0.371
    assert lift_order(eps, 4, 4) == eps  # k = m is the identity
    assert abs(lift_order(0.2, 2, 6) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        lift_order(0.1, 1, 4)
    with pytest.raises(ValueError):
        lift_order(0.1, 4, 3)
    with pytest.raises(ValueError):
        lift_order(-0.1, 2, 4)


def test_lift_order_soundness_on_random_frames():
    """The order-m probe lifted to order k really does dominate the true
    order-k parameter."""
    for s in range(6):
        phi = gen_bernoulli_sensing(8, 16, Seed(s))
        for m, k in ((2, 3), (2, 4), (3, 4)):
            eps = exact_rip(phi, m)[0].value
            true_k = exact_rip(phi, k)[0].value
            assert lift_order(eps, m, k) >= true_k - 1e-12


def test_lazy_certify_basic():
    phi = gen_bernoulli_sensing(6, 12, Seed(9))
    cert, probe = lazy_certify(phi, 2, 0.9)
    assert cert.probe_order == 2
    assert cert.target_parameter == 0.9
    assert abs(cert.probe_parameter - coherence(phi)) <= 1e-10
    assert probe.direction == EXACT_MAX
    # certified bound really holds at the certified order
    k = cert.max_certified_order
    assert k >= 2
    assert lift_order(cert.probe_parameter, 2, k) <= 0.9
    if k < min(phi.shape):
        assert lift_order(cert.probe_parameter, 2, k + 1) > 0.9
    assert exact_rip(phi, k)[0].value <= 0.9 + 1e-12


def test_lazy_certify_probe_failure_gives_zero():
    phi = gen_bernoulli_sensing(6, 12, Seed(9))  # coherence 2/3
    cert, _ = lazy_certify(phi, 2, 0.1)
    assert cert.max_certified_order == 0


def test_lazy_certify_orthonormal_hits_cap():
    cert, _ = lazy_certify(np.eye(6), 2, 0.5)
    assert cert.probe_parameter == 0.0
    assert cert.max_certified_order == 6


def test_lazy_certify_boundary_orders_match_scan(monkeypatch):
    """k_max equals a scan over every order k of the lifted bound as computed,
    for probe parameters within two ulp of a boundary eps = delta(m-1)/(k-1),
    at eps = delta and at eps = 0."""
    cap = 24
    checked = 0
    for m in (2, 3, 5):
        for delta in (0.1, 0.3, 1 / 3, 0.5, 0.7, 0.9, 0.999):
            cases = {0.0, delta}
            for k in range(m, cap + 2):
                lo = hi = delta * (m - 1) / (k - 1)
                cases.add(lo)
                for _ in range(2):
                    lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, 1.0)
                    cases.update((lo, hi))
            for eps in sorted(cases):
                probe = RipReport(m, eps, EXACT_MAX, EXHAUSTIVE, math.comb(cap, m))
                monkeypatch.setattr(certify, "exact_rip", lambda a, k, budget: (probe, None))
                want = 0 if eps > delta else max(
                    (k for k in range(m + 1, cap + 1) if lift_order(eps, m, k) <= delta),
                    default=m,
                )
                cert, _ = lazy_certify(np.eye(cap), m, delta)
                assert cert.max_certified_order == want, (eps, m, delta)
                checked += 1
    assert checked > 2000


def test_lazy_certify_requires_unit_columns():
    with pytest.raises(UnitColumnError):
        lazy_certify(2.0 * np.eye(4), 2, 0.5)
    assert require_unit_columns(np.eye(4)).shape == (4, 4)
    with pytest.raises(UnitColumnError):
        require_unit_columns(2.0 * np.eye(4))
    phi = gen_bernoulli_sensing(4, 6, Seed(0))
    with pytest.raises(ValueError):
        lazy_certify(phi, 1, 0.5)
    with pytest.raises(ValueError):
        lazy_certify(phi, 2, 0.0)
    with pytest.raises(ValueError):
        lazy_certify(phi, 2, 1.0)


def test_block_compose_shapes_and_law():
    a = gen_bernoulli_sensing(4, 6, Seed(1))
    b = gen_bernoulli_sensing(4, 6, Seed(2))
    c = block_compose(a, b)
    assert c.shape == (8, 12)
    assert np.array_equal(c[:4, :6], a)
    assert np.array_equal(c[4:, 6:], b)
    assert np.max(np.abs(c[:4, 6:])) == 0.0
    # parameter of the composition is the worse of the two parts
    for k in (1, 2, 3):
        da = exact_rip(a, k)[0].value
        db = exact_rip(b, k)[0].value
        dc = exact_rip(c, k)[0].value
        assert abs(dc - max(da, db)) <= 1e-10


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
def test_unit_column_checks_reject_bad_tolerance(tol):
    # with a NaN tolerance "distance > tol" is false for every column
    with pytest.raises(ValueError, match="finite and nonnegative"):
        require_unit_columns(2.0 * np.eye(3), tol)
