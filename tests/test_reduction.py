import math
import os
import threading
import warnings

import numpy as np
import pytest

from riplab import reduction
from riplab.certify import Witness, exact_rip
from riplab.linalg import cholesky_psd
from riplab.randgen import (
    Graph,
    Seed,
    gen_bernoulli_sensing,
    gen_gnp_half,
    gen_model_a,
    plant_clique,
)
from riplab.reduction import (
    ARM_NULL,
    ARM_PLANTED,
    NO_CLIQUE,
    PLAUSIBLE,
    PRESETS,
    STAT_EXACT,
    VIOLATES,
    YES,
    ReductionParams,
    _is_positive_definite_exact,
    asym_preset,
    cholesky_reduce,
    clique_witness,
    run_distinguishing_experiment,
    signed_adjacency,
    spectral_clique_refuter,
    verify_violation,
)

from oracles import (
    has_clique_bruteforce,
    is_positive_definite_charpoly,
    is_positive_definite_rational,
)

K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


def test_signed_adjacency_k3():
    a = signed_adjacency(K3)
    want = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
    assert np.array_equal(a, want)


def test_signed_adjacency_empty_and_validation():
    a = signed_adjacency(Graph(3))
    assert np.array_equal(a, np.array([[0, -1, -1], [-1, 0, -1], [-1, -1, 0]], dtype=float))
    with pytest.raises(ValueError):
        signed_adjacency(Graph(1))  # needs at least one vertex pair


def test_signed_adjacency_matches_sign_model():
    for s in (0, 3, 9):
        g = gen_gnp_half(10, Seed(s))
        assert np.array_equal(signed_adjacency(g), gen_model_a(10, Seed(s)))


def test_reduce_roundtrip():
    c = cholesky_reduce(K3)
    b = np.eye(3) + 0.3 * signed_adjacency(K3) / math.sqrt(3)
    assert c.shape == (3, 3)
    assert np.max(np.abs(c.T @ c - b)) <= 1e-8
    assert np.max(np.abs(np.tril(c, -1))) == 0.0


def test_reduce_roundtrip_random_graphs():
    for s in range(10):
        g = gen_gnp_half(30, Seed(s))
        c = cholesky_reduce(g)
        if not c.any():
            continue  # non-PSD convention, checked elsewhere
        b = np.eye(30) + 0.3 * signed_adjacency(g) / math.sqrt(30)
        assert np.max(np.abs(c.T @ c - b)) <= 1e-8


def _reduce_reference(g, c):
    # the reduction as its formula reads, I + (c/sqrt(n)) A summed out of place
    b = np.eye(g.n) + (c / math.sqrt(g.n)) * signed_adjacency(g)
    factor = cholesky_psd(b)
    return np.zeros((g.n, g.n)) if factor is None else factor


@pytest.mark.parametrize("n", [2, 16, 200])
def test_reduce_matches_the_out_of_place_formula_bit_for_bit(n):
    graphs = [gen_gnp_half(n, Seed(s)) for s in range(3)]
    graphs += [Graph(n), Graph(n, ~np.eye(n, dtype=bool))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # c = 0 is outside the standard range
        for c in (0.3, 0.0):
            for g in graphs:
                got = cholesky_reduce(g, ReductionParams(c=c))
                assert got.tobytes() == _reduce_reference(g, c).tobytes(), (g, c)
    # I + cA/sqrt(n) of the empty graph on 16 vertices has the eigenvalue
    # 1 - 0.3 * 15/4 < 0, so its reduction is the zero matrix
    zero = cholesky_reduce(Graph(16))
    assert zero.shape == (16, 16) and not zero.any()


def test_reduce_c_zero_gives_identity():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        c = cholesky_reduce(Graph(5), ReductionParams(c=0.0))
    assert np.array_equal(c, np.eye(5))


def test_reduce_non_psd_gives_zeros():
    # empty graph at n=100: 1 - 0.3*99/10 < 0, so B is far from PSD
    c = cholesky_reduce(Graph(100))
    assert c.shape == (100, 100)
    assert not c.any()


def test_reduction_params_validation():
    assert ReductionParams().c == 0.3
    with pytest.raises(ValueError):
        ReductionParams(c=-0.1)
    for c in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=f"reduction constant must be finite.*got {c}"):
            ReductionParams(c=c)
    with pytest.warns(UserWarning):
        ReductionParams(c=0.5)  # theory wants 0 < c < 1/3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ReductionParams(c=0.2)  # in range: silent
    with pytest.warns(UserWarning) as caught:
        ReductionParams(c=0.9)
    assert caught[0].filename == __file__  # the caller, not the generated __init__


def test_clique_witness_k3():
    w = clique_witness(K3, (0, 1, 2))
    assert w.subset == (0, 1, 2)
    assert np.allclose(w.vector, np.full(3, 1 / math.sqrt(3)))
    assert abs(w.deviation - 0.3 * 2 / math.sqrt(3)) < 1e-15
    x = w.vector
    quad = x @ signed_adjacency(K3) @ x
    assert abs(quad - 2.0) <= 5e-13  # x^T A x = k-1


def test_clique_witness_single_edge():
    g = Graph.from_edges(4, [(1, 3)])
    w = clique_witness(g, (3, 1))
    assert w.subset == (1, 3)
    x = w.vector
    assert abs(x @ signed_adjacency(g) @ x - 1.0) <= 5e-13


def test_clique_witness_planted():
    t = 14
    inst = plant_clique(gen_gnp_half(200, Seed(3)), t, Seed(4))
    w = clique_witness(inst.graph, inst.planted)
    a = signed_adjacency(inst.graph)
    assert abs(w.vector @ a @ w.vector - (t - 1)) <= 5e-13
    # the integer combinatorics behind the identity: k(k-1) ordered +1 pairs
    sub = a[np.ix_(inst.planted, inst.planted)]
    assert int(sub.sum()) == t * (t - 1)


def test_clique_witness_errors():
    g = Graph.from_edges(4, [(0, 1)])
    with pytest.raises(ValueError, match=r"missing edge \(0, 2\)"):
        clique_witness(g, (0, 1, 2))
    with pytest.raises(ValueError):
        clique_witness(g, (0,))
    with pytest.raises(ValueError):
        clique_witness(g, (0, 0))
    with pytest.raises(ValueError):
        clique_witness(g, (0, 7))


def test_verify_violation_on_k3():
    c = cholesky_reduce(K3)
    w = clique_witness(K3, (0, 1, 2))
    img = c @ w.vector
    assert abs(float(img @ img) - (1 + 0.3 * 2 / math.sqrt(3))) <= 1e-8
    assert verify_violation(c, w, 0.2)
    # deviation is ~0.3464, so delta at or above it is not violated
    assert not verify_violation(c, w, 0.5)


def test_verify_violation_planted_200():
    inst = plant_clique(gen_gnp_half(200, Seed(8)), 14, Seed(9))
    c = cholesky_reduce(inst.graph)
    assert c.any()
    w = clique_witness(inst.graph, inst.planted)
    img = c @ w.vector
    # ||Cx||^2 = 1 + 0.3*13/sqrt(200) ~ 1.2758
    assert abs(float(img @ img) - 1.2757716446627535) <= 1e-8
    assert verify_violation(c, w, 0.2)
    assert not verify_violation(c, w, 0.3)


def test_verify_violation_zero_matrix():
    w = clique_witness(K3, (0, 1, 2))
    zero = np.zeros((3, 3))
    assert verify_violation(zero, w, 0.2)
    assert verify_violation(zero, w, 0.99)


def test_verify_violation_rejects_inconsistency():
    c = cholesky_reduce(K3)
    w = clique_witness(K3, (0, 1, 2))
    wrong_c = clique_witness(K3, (0, 1, 2), ReductionParams(c=0.25))
    with pytest.raises(ValueError, match="identity failed"):
        verify_violation(c, wrong_c, 0.2)  # claims 0.25*2/sqrt(3), C has c = 0.3
    with pytest.raises(ValueError):
        verify_violation(c, clique_witness(Graph.from_edges(4, [(0, 1)]), (0, 1)), 0.2)
    with pytest.raises(ValueError):
        verify_violation(c, w, 0.0)
    # the empty graph's C shrinks ||Cx||^2 to 1 - 0.3*2/sqrt(3): the same
    # deviation as the clique's claim, with the opposite sign
    with pytest.raises(ValueError, match="witness identity failed"):
        verify_violation(cholesky_reduce(Graph(3)), w, 0.2)


def test_verify_violation_checks_exact_rip_witnesses():
    # an exact_rip witness claims |lambda - 1| = | ||Phi x||^2 - 1 | for its
    # unit eigenvector x, so the same check applies to it
    phi = gen_bernoulli_sensing(32, 24, Seed(5))
    report, w = exact_rip(phi, 3)
    assert 0 < report.value < 1 and abs(w.deviation - report.value) <= 1e-12
    assert verify_violation(phi, w, report.value - 1e-9)
    assert not verify_violation(phi, w, report.value + 1e-9)
    other = gen_bernoulli_sensing(32, 24, Seed(6))
    assert np.all(other[:, list(w.subset)] != 0)
    with pytest.raises(ValueError, match="identity failed"):
        verify_violation(other, w, 0.5)


@pytest.mark.parametrize("rho", [0.4, -0.4])
def test_exact_rip_witness_claims_a_signed_excess(rho):
    # three unit columns with pairwise inner product rho: the worst
    # eigenvalue is 1 + 2*rho = 1.8 or 0.2, so lambda - 1 = +-0.8
    phi = np.linalg.cholesky((1 - rho) * np.eye(3) + rho).T
    report, w = exact_rip(phi, 3)
    assert abs(w.excess - 2 * rho) <= 1e-12 and abs(w.deviation - report.value) <= 1e-12
    assert verify_violation(phi, w, 0.7)
    with pytest.raises(ValueError, match="identity failed"):
        verify_violation(phi, Witness(w.subset, w.vector, -w.excess), 0.7)


def test_monotone_order_padding():
    """A violation at support k survives embedding into a wider frame with
    zeros on the new coordinates."""
    from riplab.reduction import block_compose

    inst = plant_clique(gen_gnp_half(30, Seed(1)), 8, Seed(2))
    c = cholesky_reduce(inst.graph)
    assert c.any()
    w = clique_witness(inst.graph, inst.planted)
    assert verify_violation(c, w, 0.3)
    wide = block_compose(c, np.eye(5))
    padded = Witness(w.subset, np.pad(w.vector, (0, 5)), w.excess)
    assert padded.subset == w.subset
    assert verify_violation(wide, padded, 0.3)


def test_refuter_complete_graphs():
    # lambda_1(K_n) = n-1 sits exactly on the threshold; the answer must
    # still be yes for every n, including where floating point rounds down
    for n in (3, 5, 8, 20, 35):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph.from_edges(n, edges)
        assert spectral_clique_refuter(g, n) == YES


def test_refuter_empty_graph_boundary():
    # signed adjacency of the empty graph has lambda_1 = 1 exactly
    assert spectral_clique_refuter(Graph(4), 2) == YES
    assert spectral_clique_refuter(Graph(4), 3) == NO_CLIQUE
    with pytest.raises(ValueError):
        spectral_clique_refuter(Graph(4), 1)


def test_refuter_answers_k_above_n_before_building_a_matrix(monkeypatch):
    def no_matrix(g):
        raise AssertionError("signed adjacency built for k > n")

    monkeypatch.setattr(reduction, "signed_adjacency", no_matrix)
    diagnostics = {}
    assert spectral_clique_refuter(Graph(60), 61, diagnostics) == NO_CLIQUE
    assert diagnostics["proof"] == "k>n"


def test_refuter_planted_cliques_always_flagged():
    for s in range(10):
        inst = plant_clique(gen_gnp_half(60, Seed(s)), 20, Seed(s, 1))
        assert spectral_clique_refuter(inst.graph, 20) == YES


def test_refuter_soundness_bruteforce():
    """Whenever the refuter answers no-clique, exhaustive search agrees
    there is no clique of that size."""
    refuted = 0
    for s in range(30):
        g = gen_gnp_half(12, Seed(s))
        for k in (6, 7):
            if spectral_clique_refuter(g, k) == NO_CLIQUE:
                assert not has_clique_bruteforce(g, k)
                refuted += 1
    assert refuted  # the assertion above ran


def _knife_edge_graphs(n_max=40, a_max=12, m_max=30):
    """(graph, k, lambda_1 >= k - 1) triples with lambda_1 on or next to the
    threshold k - 1: K_n at k = n (lambda_1 = n - 1, on it) and n + 1, K_{a,a,a}
    at k = a + 2 (lambda_1 = a + 1, on it) and K_n minus a perfect matching at
    k = n - 2 (lambda_1 = n - 3, on it) and n - 1."""
    for n in range(2, n_max + 1):
        complete = Graph(n, ~np.eye(n, dtype=bool))
        yield complete, n, True
        yield complete, n + 1, False
    for a in range(1, a_max + 1):
        part = np.arange(3 * a) // a
        yield Graph(3 * a, part[:, None] != part[None, :]), a + 2, True
    for n in range(4, m_max + 1, 2):
        adj = ~np.eye(n, dtype=bool)
        adj[np.arange(n), np.arange(n) ^ 1] = False  # drop the matching {2i, 2i + 1}
        yield Graph(n, adj), n - 2, True
        yield Graph(n, adj), n - 1, False


def test_exact_definiteness_matches_rational_elimination():
    """The exact fallback agrees with elimination over the rationals on the
    refuter's knife edges, and the refuter answers "yes" exactly when
    (k-1)I - A is not positive definite, i.e. when lambda_1 >= k - 1."""
    for g, k, reaches in _knife_edge_graphs():
        shifted = (k - 1) * np.eye(g.n, dtype=np.int64) - signed_adjacency(g).astype(np.int64)
        definite = is_positive_definite_rational(shifted.tolist())
        assert definite == (not reaches), (g, k)
        assert _is_positive_definite_exact(shifted) == definite, (g, k)
        assert spectral_clique_refuter(g, k) == (NO_CLIQUE if definite else YES), (g, k)


def _forbid_bareiss(monkeypatch):
    def fail(m):
        raise AssertionError("reached Bareiss elimination")

    monkeypatch.setattr(reduction, "_is_positive_definite_exact", fail)


LARGE_KNIFE_EDGES = dict(n_max=400, a_max=40, m_max=200)


def test_certificates_decide_every_knife_edge(monkeypatch):
    """On K_n up to n = 400, K_{a,a,a} up to a = 40 and K_n minus a matching
    up to n = 200, the k > n, Cholesky or integer-vector proof decides and
    Bareiss elimination is never reached."""
    _forbid_bareiss(monkeypatch)
    proofs = set()
    for g, k, reaches in _knife_edge_graphs(**LARGE_KNIFE_EDGES):
        diagnostics = {}
        assert spectral_clique_refuter(g, k, diagnostics) == (YES if reaches else NO_CLIQUE), (g, k)
        proofs.add(diagnostics["proof"])
    assert proofs == {"k>n", "cholesky", "vector"}
    # the smallest knife edge, K_2 at k = 2, fails at order 2, the least
    # order _failing_order can return
    diagnostics = {}
    assert spectral_clique_refuter(Graph.from_edges(2, [(0, 1)]), 2, diagnostics) == YES
    assert diagnostics == {"proof": "vector"}


def test_vector_proves_unequal_multipartite_knife_edges(monkeypatch):
    """Complete multipartite graphs with unequal parts and integer lambda_1 =
    k-1 have a null vector with entries proportional to
    1/(lambda_1 + 2 s_i - 1), not in {-1, 0, 1}; its rational scale proves
    "yes" without Bareiss elimination."""
    _forbid_bareiss(monkeypatch)
    cases = [((1, 2, 5), 4), ((1, 6, 6), 5), ((1, 1, 1, 6), 5), ((2, 2, 2, 5), 7),
             ((2, 5, 5, 5), 10)]
    for parts, k in cases:
        labels = np.repeat(np.arange(len(parts)), parts)
        g = Graph(len(labels), labels[:, None] != labels[None, :])
        diagnostics = {}
        assert spectral_clique_refuter(g, k, diagnostics) == YES, parts
        assert diagnostics == {"proof": "vector"}, parts
        assert spectral_clique_refuter(g, k + 1, diagnostics) == NO_CLIQUE, parts
        assert diagnostics == {"proof": "cholesky"}, parts


def test_rump_step_never_factors_a_singular_psd_matrix():
    """(k-1)I - A is singular and PSD on every knife edge that sits on the
    threshold (nI - J for K_n at k = n); the shifted Cholesky must fail on all
    of them, where the unshifted one succeeds for many."""
    on_threshold = [(g, k) for g, k, reaches in _knife_edge_graphs(**LARGE_KNIFE_EDGES)
                    if reaches]
    on_threshold += [(Graph(n), 2) for n in range(2, 60)]  # (k-1)I - A = J
    for g, k in on_threshold:
        assert not reduction._factors(reduction._rump_shifted(g, k, g.n)), (g, k)


def test_refuter_decides_k1000_knife_edges_without_bareiss(monkeypatch):
    # Bareiss on K_1000 would in effect never return
    _forbid_bareiss(monkeypatch)
    n = 1000
    adj = ~np.eye(n, dtype=bool)
    diagnostics = {}
    assert spectral_clique_refuter(Graph(n, adj), n, diagnostics) == YES
    assert diagnostics == {"proof": "vector"}
    adj[np.arange(n), np.arange(n) ^ 1] = False  # lambda_1 = n - 3 < k - 1
    assert spectral_clique_refuter(Graph(n, adj), n - 1, diagnostics) == NO_CLIQUE
    assert diagnostics == {"proof": "cholesky"}


def test_bareiss_decides_what_the_other_proofs_leave(monkeypatch):
    """The last resort end to end: with the vector proof refused, the knife
    edges on the threshold (K_n at k = n, K_{a,a,a} at k = a + 2, K_n minus
    a matching at k = n - 2) answer "yes" by Bareiss elimination; with the
    shifted Cholesky also made to fail, so do the "no-clique" ones."""
    monkeypatch.setattr(reduction, "_vector_proves_reach", lambda *args: False)
    edges = [(g, k, reaches) for g, k, reaches in _knife_edge_graphs(12, 4, 12) if k <= g.n]
    for g, k, reaches in edges:
        diagnostics = {}
        if reaches:
            assert spectral_clique_refuter(g, k, diagnostics) == YES, (g, k)
            assert diagnostics == {"proof": "bareiss"}, (g, k)
    monkeypatch.setattr(reduction, "_failing_order", lambda g, k: (g.n, None))
    assert not all(reaches for _, _, reaches in edges)
    for g, k, reaches in edges:
        diagnostics = {}
        assert spectral_clique_refuter(g, k, diagnostics) == (YES if reaches else NO_CLIQUE), (g, k)
        assert diagnostics == {"proof": "bareiss"}, (g, k)


def _eigvalsh_decision(g, k):
    # the rule the certificates replaced: a float lambda_1 against k - 1,
    # re-decided by Bareiss elimination within 1e-6 of it
    signed = signed_adjacency(g)
    lam1 = float(np.linalg.eigvalsh(signed)[-1])
    if abs(lam1 - (k - 1)) <= 1e-6:
        shifted = (k - 1) * np.eye(g.n, dtype=np.int64) - signed.astype(np.int64)
        return NO_CLIQUE if _is_positive_definite_exact(shifted) else YES
    return YES if lam1 >= k - 1 else NO_CLIQUE


def test_refuter_matches_eigenvalue_rule_on_random_graphs(monkeypatch):
    """G(n, 1/2) with and without a planted clique of size ceil(2 sqrt n), at
    every k from 2 to ceil(2 sqrt n) + 5: the certified decision equals the
    eigenvalue rule, and solves no eigenproblem."""
    cases = []
    for n in (12, 60, 200):
        top = math.ceil(2 * math.sqrt(n))
        for s in range(2):
            graphs = (gen_gnp_half(n, Seed(s)),
                      plant_clique(gen_gnp_half(n, Seed(s, 1)), top, Seed(s, 2)).graph)
            cases += [(g, k, _eigvalsh_decision(g, k)) for g in graphs for k in range(2, top + 6)]

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("the refuter solved an eigenproblem")

    for name in ("eigvalsh", "eigh", "eigvals", "eig"):
        monkeypatch.setattr(np.linalg, name, no_eigensolve)
    monkeypatch.setattr(reduction, "sym_eigenvalues", no_eigensolve)
    for g, k, want in cases:
        assert spectral_clique_refuter(g, k) == want, (g.n, k)
    assert {want for _, _, want in cases} == {YES, NO_CLIQUE}


def test_exact_definiteness_on_random_integer_matrices():
    """Random symmetric integer matrices, including singular PSD Gram
    matrices X^T X and their unit shifts, against two exact oracles."""
    seen = set()
    for s in range(40):
        rng = np.random.default_rng(s)
        n = int(rng.integers(1, 9))
        if s % 2:
            x = rng.integers(-2, 3, size=(int(rng.integers(1, n + 1)), n))
            m = x.T @ x + (s % 4 == 1) * np.eye(n, dtype=np.int64)
        else:
            m = rng.integers(-3, 4, size=(n, n))
            m = m + m.T + int(rng.integers(0, 3 * n)) * np.eye(n, dtype=np.int64)
        want = is_positive_definite_rational(m.tolist())
        assert is_positive_definite_charpoly(m.tolist()) == want
        assert _is_positive_definite_exact(m) == want, s
        seen.add(want)
    assert seen == {True, False}


def test_refuter_null_graphs_at_large_order():
    # typical lambda_1 ~ 2*sqrt(200) ~ 28.3, far under 34
    for s in range(10):
        g = gen_gnp_half(200, Seed(s))
        assert spectral_clique_refuter(g, 35) == NO_CLIQUE


def test_experiment_guaranteed_planted_detection():
    rep = run_distinguishing_experiment(50, 12, 12, 0.2, trials=3, base_seed=Seed(5))
    assert rep.separation.true_positives == 3  # delta below c(k-1)/sqrt(n)
    assert len(rep.trials) == 6
    assert [t.arm for t in rep.trials] == [ARM_NULL, ARM_PLANTED] * 3
    assert rep.threshold == 11.0
    for t in rep.trials:
        assert t.decision in (VIOLATES, PLAUSIBLE)
    # reproducible end to end
    again = run_distinguishing_experiment(50, 12, 12, 0.2, trials=3, base_seed=Seed(5))
    assert [t.statistic for t in again.trials] == [t.statistic for t in rep.trials]


def _complete_multipartite(parts, size):
    labels = np.arange(parts * size) % parts  # interleaved parts
    return Graph(parts * size, labels[:, None] != labels[None, :])


def test_lambda1_null_arm_agrees_with_refuter_on_knife_edges(monkeypatch):
    """Null graphs with lambda_1 = k-1 exactly: K_n at k = n, K_{a,a,a} at
    k = a + 2 and K_n minus a perfect matching (lambda_1 = n - 3) at
    k = n - 2, plus k = n - 1 for no-clique answers.  The lambda1 arm flags
    a trial exactly when the refuter answers yes."""
    cases = [(_complete_multipartite(n, 1), n, n - 1) for n in range(4, 41)]
    cases += [(_complete_multipartite(3, a), a + 2, a + 1) for a in range(2, 13)]
    cases += [(_complete_multipartite(n // 2, 2), n - d, n - 3)
              for n in range(6, 31, 2) for d in (1, 2)]
    answers = set()
    for g, k, lam1 in cases:
        monkeypatch.setattr(reduction, "gen_gnp_half", lambda n, seed: g)
        rep = run_distinguishing_experiment(g.n, k, k, 0.1, trials=1, base_seed=Seed(0))
        null = rep.trials[0]
        assert null.arm == ARM_NULL and abs(null.statistic - lam1) <= 1e-9 * g.n
        answer = spectral_clique_refuter(g, k)
        assert (null.decision == VIOLATES) == (answer == YES), (g, k)
        answers.add(answer)
    assert answers == {YES, NO_CLIQUE}


def test_lambda1_null_arm_reduces_only_graphs_the_refuter_clears(monkeypatch):
    """The lambda1 null arm builds C(G) only when the refuter does not flag
    G; a zero reduction still flags the trial."""
    calls = []

    def counted(g, params=ReductionParams()):
        calls.append(g.n)
        return cholesky_reduce(g, params)

    monkeypatch.setattr(reduction, "cholesky_reduce", counted)
    # lambda_1 of G(20, 1/2) lies far above k - 1 = 2: every null is flagged,
    # and only the planted arms reduce
    rep = run_distinguishing_experiment(20, 8, 3, 0.1, trials=4, base_seed=Seed(2))
    assert [t.decision for t in rep.trials if t.arm == ARM_NULL] == [VIOLATES] * 4
    assert len(calls) == 4
    # at k = 12 the refuter clears every G(16, 1/2), and c = 0.9 leaves
    # I + cA/sqrt(n) indefinite: the zero reductions flag the nulls
    calls.clear()
    with pytest.warns(UserWarning, match="outside the standard range"):
        params = ReductionParams(c=0.9)
    rep = run_distinguishing_experiment(16, 4, 12, 0.5, params, trials=3, base_seed=Seed(1))
    nulls = [t for t in rep.trials if t.arm == ARM_NULL]
    assert [t.decision for t in nulls] == [VIOLATES] * 3
    for t in nulls:
        g = gen_gnp_half(16, t.seed)
        assert spectral_clique_refuter(g, 12) == NO_CLIQUE
        assert not cholesky_reduce(g, params).any()
    assert len(calls) == 6


def test_experiment_two_sided_at_k35():
    p = dict(PRESETS["desk-200-k35"])
    p["trials"] = 3
    rep = run_distinguishing_experiment(base_seed=Seed(7), **p)
    assert rep.separation.true_positives == 3
    assert rep.separation.false_positives == 0


def test_experiment_exact_statistic():
    rep = run_distinguishing_experiment(
        12, 6, 6, 0.3, trials=4, base_seed=Seed(11), null_statistic=STAT_EXACT
    )
    assert rep.null_statistic == STAT_EXACT
    assert rep.threshold == 0.3
    assert rep.separation.true_positives == 4
    assert rep.separation.false_positives == 4  # tiny n: null matrices violate too
    planted_stats = [t.statistic for t in rep.trials if t.arm == ARM_PLANTED]
    want = 0.3 * 5 / math.sqrt(12)
    assert all(abs(s - want) < 1e-9 for s in planted_stats)


def test_experiment_rect_composition():
    rep = run_distinguishing_experiment(
        20, 8, 8, 0.2, trials=1, base_seed=Seed(2), rect_cols=16
    )
    assert rep.rect_cols == 16
    assert rep.separation.true_positives == 1


def test_experiment_validation_and_warning():
    with pytest.raises(TypeError, match="base_seed"):
        run_distinguishing_experiment(20, 8, 8, 0.2)
    with pytest.raises(ValueError):
        run_distinguishing_experiment(20, 1, 8, 0.2, base_seed=Seed(0))
    with pytest.raises(ValueError):
        run_distinguishing_experiment(20, 8, 8, 1.2, base_seed=Seed(0))
    with pytest.warns(UserWarning, match="no longer guaranteed"):
        run_distinguishing_experiment(100, 5, 5, 0.5, trials=1, base_seed=Seed(0))


def test_experiment_refuses_bad_order_rect_cols_and_statistic():
    for k in (1, 21):
        with pytest.raises(ValueError, match=f"order must be in \\[2, 20\\], got {k}"):
            run_distinguishing_experiment(20, 8, k, 0.2, base_seed=Seed(0))
    for cols in (0, -3):
        with pytest.raises(ValueError, match=f"rect_cols must be positive, got {cols}"):
            run_distinguishing_experiment(20, 8, 8, 0.2, base_seed=Seed(0), rect_cols=cols)
    with pytest.raises(ValueError, match="unknown null statistic 'lambda2'"):
        run_distinguishing_experiment(20, 8, 8, 0.2, base_seed=Seed(0), null_statistic="lambda2")


def test_presets():
    assert set(PRESETS) == {"desk-200", "desk-200-k35", "desk-400"}
    assert PRESETS["desk-200"] == dict(n=200, clique_size=14, k=14, delta=0.2, trials=20)
    assert PRESETS["desk-200-k35"]["delta"] == 0.5
    assert PRESETS["desk-400"]["n"] == 400


def test_asym_preset():
    p = asym_preset(10000, 0.1)
    assert p == dict(n=10000, clique_size=40, k=759, delta=0.3311311214825911, trials=20)
    with pytest.raises(ValueError):
        asym_preset(2, 0.1)
    with pytest.raises(ValueError):
        asym_preset(1000, 0.6)


def test_reduction_and_refuter_give_one_thread_bits_at_two_threads(set_blas_threads):
    """At two OpenBLAS threads the reduction at n = 200 and 400, the lambda1
    statistic at n = 400 and the knife-edge refutes give their one-thread
    bits.  Unpinned, the n = 400 factor differs on a 2-core host, and
    lambda_1 of gen_gnp_half(400, Seed(5)) reads 40.04933117493732 against
    40.049331174937386."""
    part = np.arange(60) % 3
    knife = [(Graph(60, ~np.eye(60, dtype=bool)), 60),  # K_60: lambda_1 = 59
             (Graph(60, part[:, None] != part[None, :]), 22)]  # K_20,20,20: lambda_1 = 21

    def run():
        factors = [cholesky_reduce(gen_gnp_half(n, Seed(5))) for n in (200, 400)]
        rep = run_distinguishing_experiment(400, 20, 20, 0.2, trials=1, base_seed=Seed(5))
        refutes = []
        for g, k in knife:
            diagnostics = {}
            refutes.append((spectral_clique_refuter(g, k, diagnostics), diagnostics))
        return factors, rep.trials, refutes

    set_blas_threads(1)
    one = run()
    set_blas_threads(2)
    two = run()
    for a, b in zip(one[0], two[0]):
        np.testing.assert_array_equal(a, b)
    assert one[1] == two[1]
    assert one[2] == two[2] == [(YES, {"proof": "vector"})] * 2


def _split_run(trials=5, **kw):
    """A desk-200-shaped experiment of ``trials`` trials: its report, the
    warnings it raised in order, and how many processes ran it."""
    diagnostics = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = run_distinguishing_experiment(**dict(PRESETS["desk-200"], trials=trials, **kw),
                                            base_seed=Seed(3), diagnostics=diagnostics)
    return rep, [(str(w.message), w.category) for w in caught], diagnostics["processes"]


def test_split_experiment_repeats_the_serial_records_and_warnings(monkeypatch, split_trials):
    """Trials dealt to two processes give the serial run's records, and the
    warnings raised inside each trial in the serial order."""
    plant = reduction.plant_clique

    def noisy(graph, size, seed):
        warnings.warn(f"planting in {seed}", UserWarning)
        return plant(graph, size, seed)

    monkeypatch.setattr(reduction, "plant_clique", noisy)
    split_trials(False)
    serial = _split_run()
    split_trials(True)
    split = _split_run()
    assert (serial[2], split[2]) == (1, 2)
    assert split[:2] == serial[:2]
    assert [m for m, _ in serial[1]] == [f"planting in {Seed(3).child(t, 1)}" for t in range(5)]


def test_split_experiment_runs_a_failed_workers_trials_itself(monkeypatch, split_trials):
    """A worker that dies without a word, here by os._exit in its first
    trial, costs time but changes nothing: its trials run in the parent."""
    parent, gnp = os.getpid(), reduction.gen_gnp_half

    def dying(n, seed):
        if os.getpid() != parent:
            os._exit(7)
        return gnp(n, seed)

    split_trials(False)
    serial = _split_run()
    monkeypatch.setattr(reduction, "gen_gnp_half", dying)
    split_trials(True)
    assert _split_run()[:2] == serial[:2]


@pytest.mark.parametrize("failing", [(1,), (2,), (1, 2), (2, 3)])
def test_split_experiment_raises_the_serial_error(failing, monkeypatch, split_trials):
    """Trials that raise, in the worker's share (odd trials), the parent's
    (even trials) or both, raise the serial run's error: the first failing
    trial's."""
    gnp = reduction.gen_gnp_half
    bad = [Seed(3).child(t, 0) for t in failing]

    def failing_gnp(n, seed):
        if seed in bad:
            raise ValueError(f"no graph for {seed}")
        return gnp(n, seed)

    monkeypatch.setattr(reduction, "gen_gnp_half", failing_gnp)
    for on in (False, True):
        split_trials(on)
        with pytest.raises(ValueError) as err:
            _split_run()
        assert str(err.value) == f"no graph for {bad[0]}"


def test_split_experiment_reaps_its_workers_on_an_interrupt(monkeypatch, split_trials):
    parent, gnp = os.getpid(), reduction.gen_gnp_half

    def interrupted(n, seed):
        if os.getpid() == parent and seed == Seed(3).child(2, 0):
            raise KeyboardInterrupt
        return gnp(n, seed)

    monkeypatch.setattr(reduction, "gen_gnp_half", interrupted)
    split_trials(True)
    with pytest.raises(KeyboardInterrupt):
        _split_run()


def test_experiment_stays_serial_when_a_split_would_not_pay_or_be_safe(monkeypatch):
    # 4 trials at n = 24, the certify bench's exact-null shape, never fork
    assert reduction._processes(24, 4, True) == 1
    assert reduction._processes(400, 20, True) == min(20, len(os.sched_getaffinity(0)))
    assert reduction._processes(400, 20, False) == 1
    stop = threading.Event()
    waiting = threading.Thread(target=stop.wait)
    waiting.start()
    try:
        assert reduction._processes(400, 20, True) == 1
    finally:
        stop.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive()
    monkeypatch.delattr(reduction.os, "fork")
    assert reduction._processes(400, 20, True) == 1


@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_split_experiment_without_a_pipe_or_a_process_runs_serially(call, monkeypatch,
                                                                     split_trials):
    def refuse():
        raise OSError(24, "Too many open files")

    split_trials(False)
    serial = _split_run()
    monkeypatch.setattr(reduction.os, call, refuse)
    split_trials(True)
    assert _split_run() == serial[:2] + (2,)
