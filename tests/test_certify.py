import itertools
import json
import math
import tracemalloc
from pathlib import Path

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
from riplab.randgen import Seed, gen_bernoulli_sensing, gen_gnp_half
from riplab.reduction import ReductionParams, block_compose, cholesky_reduce

from oracles import rayleigh_lower_bound, svd_rip_oracle


def test_coherence_examples():
    assert coherence(np.eye(3)) == 0.0
    # two unit vectors at 60 degrees
    phi = np.array([[1.0, 0.5], [0.0, np.sqrt(3) / 2]])
    assert abs(coherence(phi) - 0.5) < 1e-15
    with pytest.raises(ValueError):
        coherence(np.ones((3, 1)))  # needs two columns


def test_coherence_holds_one_gram_and_a_row_block():
    """coherence reads G's row maxima a block of rows at a time: an 8 x 512
    Bernoulli matrix peaks below 1.5 times its Gram's bytes (3 times with
    an n x n |G - diag(G)|)."""
    phi = gen_bernoulli_sensing(8, 512, Seed(3))
    mu = coherence(phi)  # warm-up, outside the trace
    tracemalloc.start()
    try:
        assert coherence(phi) == mu
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 512 * 512 * 8, peak


def test_subset_deviation_identity_and_repeats():
    phi = np.eye(4)
    assert subset_deviation(phi, (0, 2)) == 0.0
    phi2 = np.array([[1.0, 1.0], [0.0, 0.0]])  # identical unit columns
    assert abs(subset_deviation(phi2, (0, 1)) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        subset_deviation(phi, (2, 0))  # must be strictly increasing
    with pytest.raises(ValueError):
        subset_deviation(phi, (0, 9))
    with pytest.raises(ValueError, match="index subset must be nonempty"):
        subset_deviation(phi, [])


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


def test_overflowing_deviations_skip_nothing():
    # G is finite, but 2 x 1e308 overflows: every deviation is inf, so the
    # level is too, and the scan still solves every subset and returns the first
    phi = np.array([[1e154, 1e154, -1e154, 1e154]])
    for k, subset in ((2, (0, 1)), (3, (0, 1, 2))):
        with np.errstate(over="ignore", invalid="ignore"):
            rep, wit = exact_rip(phi, k)
        assert rep.value == math.inf and wit.subset == subset
        assert rep.subsets_examined == math.comb(4, k) and rep.direction == EXACT_MAX


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
        # near-duplicate pairs at ranks 0 and C(24,2) - 1, at the two ends of
        # the walk: the closer, later pair beats the earlier by far less than
        # 1e-3, and its bound is nearly tight
        near = rng.standard_normal((5, 24))
        near[:, 1] = near[:, 0] + 1e-3 * rng.standard_normal(5)
        near[:, 23] = near[:, 22] + 1e-4 * rng.standard_normal(5)
        yield near / np.linalg.norm(near, axis=0)
        # C(G) reductions: every off-diagonal |G_ij| of the graph block is
        # c/sqrt(n), so bounds tie everywhere and rounding picks the witness;
        # with and without a Bernoulli block beside them (--rect-cols)
        reduced = cholesky_reduce(gen_gnp_half(12, Seed(40 + s)), ReductionParams())
        yield reduced
        yield block_compose(reduced, gen_bernoulli_sensing(12, 5, Seed(50 + s)))


def _walk(g, k, cutoff, threshold=math.inf):
    """The subsets of a threshold scan's walk held at a fixed cutoff, and
    the walk, which holds its counts.  The default threshold lies above
    every seed, so the walk builds its top-q tables; at order 3 a threshold
    the seed beats makes it read q times each row's maximum instead."""
    walk = certify._Walk(g, k, threshold=threshold)
    walk.cutoff = lambda: cutoff
    blocks = list(walk.blocks())
    for block in blocks:
        assert block.dtype == np.int64 and block.shape[1] == k and len(block)
    walked = np.concatenate(blocks) if blocks else np.empty((0, k), dtype=np.int64)
    return walked, walk


def _assert_blocks_are_combinations(n, k):
    # with nothing below the cutoff, the walk yields every subset once, in order
    rng = np.random.default_rng(n * 100 + k)
    walked, walk = _walk(gram(rng.standard_normal((3, n))), k, -np.inf)
    want = np.array(list(itertools.combinations(range(n), k)), dtype=np.int64)
    assert np.array_equal(walked, want.reshape(math.comb(n, k), k))
    assert walk.pruned == walk.screened == 0


def test_subset_blocks_match_itertools_small():
    for n in range(1, 13):
        for k in range(1, n + 1):
            _assert_blocks_are_combinations(n, k)


def _gershgorin_bounds(g, subsets):
    m = np.abs(g - np.eye(len(g)))
    return m[subsets[:, :, None], subsets[:, None, :]].sum(axis=2).max(axis=1)


@pytest.mark.parametrize("tables", ["exact", "grid", "none", "row-max"])
@pytest.mark.parametrize("n, k", [(9, 1), (30, 2), (200, 2), (24, 3), (110, 3), (20, 4),
                                  (14, 6), (11, 9)])
def test_subset_blocks_keep_exactly_the_subsets_over_the_cutoff(n, k, tables, monkeypatch):
    """At a fixed cutoff the walk yields, in lexicographic order, exactly the
    subsets whose Gershgorin bound reaches it and counts every other subset
    once, pruned with a prefix or screened on its own, whether exact top-q
    tables bound the prefixes, or q times each row's maximum does (tables
    over the cap, here lowered to 512 doubles, or order 3 under a threshold
    the seed beats), or nothing does; its first batches hold one prefix's
    completions (n = 200)."""
    if tables == "grid":
        monkeypatch.setattr(certify, "_TABLE_DOUBLES", 512)
    elif tables == "none":
        monkeypatch.setattr(certify, "_top_tables", lambda g, k: None)
    rng = np.random.default_rng(n + k)
    phi = rng.standard_normal((6, n)) * rng.uniform(0.5, 1.5, n)
    g = gram(phi)
    combos = np.array(list(itertools.combinations(range(n), k)), dtype=np.int64)
    bounds = _gershgorin_bounds(g, combos)
    values = np.unique(bounds)
    i = int(0.9 * (len(values) - 1))
    cutoff = (values[i] + values[i + 1]) / 2  # far from every bound, in ulps
    walked, walk = _walk(g, k, cutoff, -math.inf if tables == "row-max" else math.inf)
    if k < 3 or tables == "none":
        form = "none"
    elif tables == "grid" or (tables == "row-max" and k == 3):
        form = "row-max"
    else:
        form = "exact"
    assert walk.bound_tables == form
    assert np.array_equal(walked, combos[bounds >= cutoff])
    assert walk.pruned + walk.screened + len(walked) == len(combos)
    assert (walk.pruned > 0) == (k >= 2)


def test_diagnostics_name_the_bound_tables():
    """A scan records which bounds its prefixes read: exact top-q tables
    within 2^21 doubles (order 3 up to N = 836), the row-maximum cell beyond
    them and in an order-3 scan whose seed beats its threshold, and none at
    order 2."""
    phi = gen_bernoulli_sensing(40, 160, Seed(0))
    for k, threshold, form in ((3, None, "exact"), (3, -0.5, "row-max"), (2, None, "none")):
        diagnostics = {}
        exact_rip(phi, k, threshold=threshold, diagnostics=diagnostics)
        assert diagnostics["bound_tables"] == form
    g = gram(gen_bernoulli_sensing(8, 837, Seed(0)))
    assert certify._Walk(g[:836, :836], 3).bound_tables == "exact"
    assert certify._Walk(g, 3).bound_tables == "row-max"


def _record_gate(monkeypatch):
    """Wrap `_Walk.gate`; the returned list gets, per call, the children it
    saw and the mask of those it kept."""
    calls = []
    gate = certify._Walk.gate

    def recording(self, idx, s, suffix, rep, q):
        keep = gate(self, idx, s, suffix, rep, q)
        calls.append((np.column_stack((idx[rep], q)), keep))
        return keep

    monkeypatch.setattr(certify._Walk, "gate", recording)
    return calls


@pytest.mark.parametrize("tables", ["exact", "grid", "none"])
def test_gate_skips_no_prefix_with_a_completion_over_the_cutoff(tables, monkeypatch):
    """At fixed cutoffs, no prefix of length k-1 that the gate skips has a
    completion whose Gershgorin bound reaches the cutoff, at k = 2 to 6 on the
    sweep (C(G) ties, near-duplicate columns), with top-1 values from exact
    tables or, with the table cap lowered to 512 doubles or without tables
    (always at k = 2), from the row maxima.  Each cutoff lies midway between two
    bound values far apart in ulps: a bound within rounding of the cutoff
    may land on either side, which the scan's margin covers."""
    if tables == "grid":
        monkeypatch.setattr(certify, "_TABLE_DOUBLES", 512)
    elif tables == "none":
        monkeypatch.setattr(certify, "_top_tables", lambda g, k: None)
    calls = _record_gate(monkeypatch)
    skipped = dict.fromkeys(range(2, 7), 0)
    for phi in _sweep_matrices():
        g = gram(phi)
        n = len(g)
        for k in skipped:
            combos = np.array(list(itertools.combinations(range(n), k)), dtype=np.int64)
            bounds = _gershgorin_bounds(g, combos)
            # the largest completion bound of each prefix of length k-1
            keys, where = np.unique(combos[:, :-1] @ n ** np.arange(k - 1), return_inverse=True)
            most = np.full(len(keys), -np.inf)
            np.maximum.at(most, where.ravel(), bounds)
            values = np.unique(bounds)
            wide = np.flatnonzero(np.diff(values) > 1e-9 * values[1:])
            for i in wide[[len(wide) // 2, -1]] if len(wide) else []:
                cutoff = (values[i] + values[i + 1]) / 2
                del calls[:]
                _walk(g, k, cutoff)
                for children, keep in calls:
                    out = np.searchsorted(keys, children[~keep] @ n ** np.arange(k - 1))
                    assert (most[out] < cutoff).all(), (n, k, cutoff)
                    skipped[k] += int((~keep).sum())
    assert all(skipped.values()), skipped


def test_gate_skips_most_prefixes_that_reach_it(monkeypatch):
    """Pruning guard: on 40 x 160 Bernoulli matrices at order 3 the gate
    skips most of the prefixes of length 2 that reach it, before their row
    sums are built (0.68 to 0.94 over seeds 0 to 5)."""
    calls = _record_gate(monkeypatch)
    shares = []
    for s in range(6):
        del calls[:]
        exact_rip(gen_bernoulli_sensing(40, 160, Seed(s)), 3)
        shares.append(1 - np.concatenate([keep for _, keep in calls]).mean())
    assert min(shares) >= 0.6 and np.median(shares) >= 0.8, shares


def _match_reference_scans(monkeypatch):
    """Every `_reference_scans` case of the sweep at k = 1 to 5, scanned with
    the walk and matched field by field; returns the scans' tallies."""
    solved, tabled = [], []
    solve, top_tables = certify._block_deviations, certify._top_tables
    monkeypatch.setattr(certify, "_block_deviations",
                        lambda g, block: solved.append(len(block)) or solve(g, block))
    monkeypatch.setattr(certify, "_top_tables", lambda g, k: tabled.append(k) or top_tables(g, k))
    tally = dict.fromkeys(["full_examined", "full_solved", "seed_above", "multi_level",
                           "row_max_cells", "proved"], 0)
    for phi in _sweep_matrices():
        for k in range(1, 6):
            for threshold, value, subset, vector, direction, examined in _reference_scans(phi, k):
                del solved[:], tabled[:]
                diagnostics = {}
                rep, wit = exact_rip(phi, k, threshold=threshold, diagnostics=diagnostics)
                assert rep.value == value
                assert wit.subset == subset
                assert np.array_equal(wit.vector, vector)
                assert rep.direction == direction
                assert rep.subsets_examined == examined
                tally["proved"] += diagnostics["subsets_proved"]
                if threshold is None:
                    tally["full_examined"] += examined
                    tally["full_solved"] += sum(solved[1:])  # solved[0]: the seed
                    tally["multi_level"] += sum(c > 0 for c in diagnostics["prefixes_pruned"]) >= 2
                elif direction == LOWER_BOUND and value < diagnostics["seed_level"]:
                    tally["seed_above"] += 1  # the first hit lies between threshold and seed
                tally["row_max_cells"] += k == 3 and not tabled
    return tally


def test_screened_scan_matches_unscreened_reference(monkeypatch):
    """Pruning and screening change no value, witness, direction or count
    for any threshold, and do skip eigensolves: also on C(G) knife edges,
    with the seed above a threshold that an earlier subset crosses, with
    prefixes pruned at two or more lengths, and with order-3 prefixes
    bounded by the row maxima, not by top-q tables."""
    tally = _match_reference_scans(monkeypatch)
    # unscreened, every examined subset is solved
    assert tally["full_solved"] < tally["full_examined"] / 2
    assert tally["seed_above"] and tally["multi_level"] and tally["row_max_cells"]


def test_proved_scan_matches_unscreened_reference(monkeypatch):
    """With every block put to the Cholesky proof first, however small, the
    sweep's scans (exact ties, near-duplicate columns, C(G) with and without
    a Bernoulli block, k = 1 to 5, every reference threshold) still match
    the unscreened reference, and the proof settles subsets."""
    monkeypatch.setattr(certify, "_PROOF_ROWS", 1)
    assert _match_reference_scans(monkeypatch)["proved"] > 0


def test_order_3_scans_that_must_stop_build_no_tables(monkeypatch):
    """An order-3 threshold scan whose seed beats its threshold stops by the
    seed's rank and bounds its prefixes by q times each row's maximum: it
    builds no top-q tables and matches the unscreened reference, also where
    a prefix member's own row, not a later one, decides the bound.  A
    threshold above the maximum, a full scan and an order-4 scan build them."""
    class Built(Exception):
        pass

    def refuse(g, k):
        raise Built

    phi = gen_bernoulli_sensing(12, 40, Seed(5))
    diagnostics = {}
    exact_rip(phi, 3, diagnostics=diagnostics)
    seed = diagnostics["seed_level"]
    monkeypatch.setattr(certify, "_top_tables", refuse)
    stopped = built = 0
    for threshold, value, subset, vector, direction, examined in _reference_scans(phi, 3):
        if threshold is None or threshold >= seed:  # the seed does not beat it
            with pytest.raises(Built):
                exact_rip(phi, 3, threshold=threshold)
            built += 1
            continue
        rep, wit = exact_rip(phi, 3, threshold=threshold)
        assert (rep.value, wit.subset, rep.direction, rep.subsets_examined) == (
            value, subset, direction, examined)
        assert np.array_equal(wit.vector, vector)
        stopped += 1
    assert stopped >= 2 and built >= 2
    with pytest.raises(Built):
        exact_rip(phi, 4, threshold=-0.5)  # a threshold every seed beats
    # where a prefix member's own row decides the bound: columns 2, 5 and 7
    # have Gram [[1.25, .25, .25], [.25, 1, .25], [.25, .25, 1]], the others
    # are orthogonal to everything, and only {2, 5, 7} deviates by more than
    # 0.55 (by 0.60).  Prefix {2} bounds it only through |G_22 - 1| plus twice
    # row 2's maximum (0.75): one maximum, or any row i > 2 (0.5), prunes it
    phi = np.zeros((8, 8))
    phi[:3, [2, 5, 7]] = np.linalg.cholesky(0.25 + np.diag([1.0, 0.75, 0.75])).T
    phi[3:, [0, 1, 3, 4, 6]] = np.eye(5)
    rep, wit = exact_rip(phi, 3, threshold=0.55)
    assert (wit.subset, rep.direction) == ((2, 5, 7), LOWER_BOUND)
    assert rep.subsets_examined == list(itertools.combinations(range(8), 3)).index((2, 5, 7)) + 1


def _schedule_matrices():
    """The sweep, plus k = 2 cases: exact ties among duplicated unit columns
    and a duplicated pair whose D_p = |G_pp - 1| decides the bound."""
    yield from _sweep_matrices()
    base = gen_bernoulli_sensing(8, 12, Seed(60))
    yield base[:, [0, 1, 0, 2, 1, 3, 0, 4, 5, 5, 6, 7]]
    scaled = base * np.linspace(0.5, 1.5, 12)
    scaled[:, 9] = scaled[:, 3]
    yield scaled


def _schedule_results():
    out = []
    for phi in _schedule_matrices():
        for k in range(1, 6):
            top = exact_rip(phi, k)[0].value
            for threshold in (None, 0.5 * top, top):
                rep, wit = exact_rip(phi, k, threshold=threshold)
                out.append((rep, wit.subset, wit.vector.tobytes(), wit.excess))
    return out


def test_slice_schedule_changes_no_result(monkeypatch):
    """The batch sizes, whether the ramp of a threshold scan, the whole
    slices of a full scan or tiny slices, change no report field and no
    witness byte, at k = 1 to 5 and for thresholds that stop and that do not."""
    want = _schedule_results()
    for first, slice_doubles in ((1, 2), (3, 40), (1 << 15, 1 << 15)):
        monkeypatch.setattr(certify, "_FIRST_ROWS", first)
        monkeypatch.setattr(certify, "_SLICE_DOUBLES", slice_doubles)
        assert _schedule_results() == want, (first, slice_doubles)


SCAN_SWEEP = Path(__file__).parent / "golden" / "scan_sweep.json"


def _scan_sweep():
    """Full scans of Bernoulli matrices at the bench's exact-scan shapes and
    at two shapes whose top-q tables exceed 2^17 doubles (96 x 300 at k = 3,
    48 x 190 at k = 4), seeds 0 to 2, each followed by threshold scans at
    half its value and at its value: per scan its report fields and witness
    (the vector's entries at the subset), with the witness vector."""
    out = []
    for rows, cols, k in ((24, 48, 4), (40, 160, 3), (20, 36, 5), (64, 1024, 2), (64, 128, 3),
                          (96, 300, 3), (48, 190, 4)):
        for s in range(3):
            phi = gen_bernoulli_sensing(rows, cols, Seed(s))
            rep, wit = exact_rip(phi, k)
            for threshold in (None, 0.5 * rep.value, rep.value):
                if threshold is not None:
                    rep, wit = exact_rip(phi, k, threshold=threshold)
                out.append(({"rows": rows, "cols": cols, "order": k, "seed": s,
                             "threshold": threshold, "value": rep.value,
                             "direction": rep.direction,
                             "subsets_examined": rep.subsets_examined,
                             "subset": list(wit.subset), "excess": wit.excess,
                             "vector": wit.vector[list(wit.subset)].tolist()}, wit.vector))
    return out


def test_scan_sweep_replays_its_golden():
    """The walk's committed comparison: every report field and witness byte
    of the bench-shape scans matches the recorded one, so a change to the
    walk that keeps this golden changes none of these results."""
    _replay_scan_sweep()


def test_scan_sweep_replays_its_golden_with_every_block_proved(monkeypatch):
    """So it does when every block, however small, goes to the Cholesky
    proof first."""
    monkeypatch.setattr(certify, "_PROOF_ROWS", 1)
    _replay_scan_sweep()


def _replay_scan_sweep():
    want = json.loads(SCAN_SWEEP.read_text())
    got = _scan_sweep()
    assert len(got) == len(want) == 63
    for w, (record, vector) in zip(want, got):
        full = np.zeros(w["cols"])
        full[w["subset"]] = w["vector"]
        assert record == w and vector.tobytes() == full.tobytes(), w


def test_threshold_hit_materialises_first_chunk_only(monkeypatch):
    phi = gen_bernoulli_sensing(16, 200, Seed(1))
    phi[:, 4] = phi[:, 0]  # subset (0, 1, 4), rank 2, has deviation >= 1
    rows = []
    blocks = certify._Walk.blocks

    def recording(self):
        for block in blocks(self):
            rows.append(len(block))
            yield block

    monkeypatch.setattr(certify._Walk, "blocks", recording)
    diagnostics = {}
    rep, wit = exact_rip(phi, 3, threshold=0.99, diagnostics=diagnostics)
    assert rep.direction == LOWER_BOUND
    assert wit.subset == (0, 1, 4) and rep.subsets_examined == 3
    assert diagnostics["seed_level"] > 0.99  # the seed finds the pair, the level stays at 0.99
    # only the first prefix's completions were bounded one by one
    bounded = diagnostics["subsets_screened"] + diagnostics["subsets_solved"]
    assert len(rows) == 1 and bounded <= 256 < math.comb(200, 3)


def test_full_scans_account_for_every_subset_once():
    """On full scans, subsets pruned with a prefix, screened on their own,
    proved below the cutoff and solved add up to the examined count; the
    seed solves a few more.  The 20 x 36 order-5 scan proves most of the
    subsets its screen passes."""
    for phi, k in ((gen_bernoulli_sensing(20, 36, Seed(1)), 5),
                   (gen_bernoulli_sensing(64, 300, Seed(2)), 2),
                   (cholesky_reduce(gen_gnp_half(16, Seed(3)), ReductionParams()), 4),
                   (np.eye(6), 1)):
        diagnostics = {}
        rep, _ = exact_rip(phi, k, diagnostics=diagnostics)
        assert rep.subsets_examined == math.comb(phi.shape[1], k)
        assert (diagnostics["subsets_pruned"] + diagnostics["subsets_screened"]
                + diagnostics["subsets_proved"] + diagnostics["subsets_solved"]
                ) == rep.subsets_examined
        if k == 5:
            assert diagnostics["subsets_proved"] > 10 * diagnostics["subsets_solved"]
        assert len(diagnostics["prefixes_pruned"]) == max(k - 1, 0)
        assert diagnostics["seed_level"] <= rep.value


def test_seeded_scans_prune_most_subsets_by_prefix():
    """Pruning guard: on 40 x 160 Bernoulli matrices at order 3 the prefix
    bounds skip most subsets before any is built.  The share depends on the
    matrix (0.93 to 0.998 over seeds 0 to 5), so the guard takes their median."""
    shares = []
    for s in range(6):
        diagnostics = {}
        rep, _ = exact_rip(gen_bernoulli_sensing(40, 160, Seed(s)), 3, diagnostics=diagnostics)
        shares.append(diagnostics["subsets_pruned"] / rep.subsets_examined)
    assert min(shares) >= 0.7 and np.median(shares) >= 0.9, shares


def test_lift_order_examples():
    assert lift_order(0.05, 3, 5) == 0.1
    eps = 0.371
    assert lift_order(eps, 4, 4) == eps  # k = m is the identity
    assert abs(lift_order(0.2, 2, 6) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        lift_order(0.1, 1, 4)
    with pytest.raises(ValueError):
        lift_order(0.1, 4, 3)
    for bad in (-0.1, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            lift_order(bad, 2, 3)


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
                monkeypatch.setattr(certify, "exact_rip",
                                    lambda a, k, budget, diagnostics: (probe, None))
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


def test_scans_do_not_depend_on_the_gram_layout(monkeypatch):
    """gram returns a view of row-padded storage; scans and coherence read
    that view exactly as they read a contiguous copy of it."""
    shapes = [(64, 1024, 2, None), (40, 160, 3, None), (64, 128, 3, None), (96, 160, 3, 0.6)]
    mats = [gen_bernoulli_sensing(rows, cols, Seed(rows + cols)) for rows, cols, _, _ in shapes]
    assert not any(gram(phi).flags.c_contiguous for phi in mats)

    def run(layout):
        monkeypatch.setattr(certify, "gram", lambda a: layout(gram(a)))
        out = []
        for phi, (_, _, k, threshold) in zip(mats, shapes):
            diag = {}
            rep, wit = exact_rip(phi, k, threshold=threshold, diagnostics=diag)
            out.append((rep, wit.subset, wit.vector.tobytes(), wit.excess, diag, coherence(phi)))
        return out

    padded, contiguous = run(lambda g: g), run(np.ascontiguousarray)
    assert padded == contiguous
    assert padded[-1][0].direction == LOWER_BOUND  # the threshold scan stops


@pytest.mark.parametrize("budget", [float("nan"), float("inf")])
def test_non_finite_budget_is_refused_before_any_scan(budget, monkeypatch):
    # "nan < 1" and "C(N, k) > nan" are both false, so a NaN budget bounded nothing
    def no_scan(*args):
        raise AssertionError("the scan started")

    monkeypatch.setattr(certify, "gram", no_scan)
    monkeypatch.setattr(certify, "_Walk", no_scan)
    phi = gen_bernoulli_sensing(6, 12, Seed(0))
    with pytest.raises(ValueError, match=f"positive finite count, got {budget}"):
        exact_rip(phi, 3, budget=budget)
    with pytest.raises(ValueError, match=f"positive finite count, got {budget}"):
        lazy_certify(phi, 2, 0.9, budget=budget)


if __name__ == "__main__":  # rewrite the scan golden: PYTHONPATH=src:tests python tests/test_certify.py
    SCAN_SWEEP.write_text("[\n" + ",\n".join(json.dumps(r) for r, _ in _scan_sweep()) + "\n]\n")
