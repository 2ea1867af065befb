import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from riplab.fileio import read_graph_file, write_graph_file
from riplab.randgen import (
    _LABEL_SYM,
    MAX_GRAPH_VERTICES,
    Graph,
    Seed,
    _raw_words,
    gen_bernoulli_sensing,
    gen_gnp_half,
    gen_model_a,
    gen_model_b,
    plant_clique,
)


def test_seed_validation():
    Seed(0)
    Seed(2**64 - 1, stream=3)
    with pytest.raises(ValueError):
        Seed(-1)
    with pytest.raises(ValueError):
        Seed(2**64)
    with pytest.raises(ValueError):
        Seed(1.5)
    with pytest.raises(ValueError):
        Seed(True)
    with pytest.raises(ValueError):
        Seed(0, stream=-2)


def test_child_seeds_distinct_and_stable():
    s = Seed(42)
    kids = {(): s.child(), (1,): s.child(1), (2,): s.child(2), (1, 2): s.child(1, 2), (2, 1): s.child(2, 1)}
    values = [k.value for k in kids.values()]
    assert len(set(values)) == len(values)  # label order matters, no collisions
    # frozen: derivation must never change between releases
    assert s.child(1).value == 3107889279776628581
    assert s.child(2).value == 1810133831286182746
    assert s.child(1, 2).value == 1618405910425686246
    assert s.child(1).stream == 0
    with pytest.raises(ValueError):
        s.child(-1)


def test_raw_words_frozen():
    """The underlying counter-based stream is part of the file-format contract:
    these exact words must come back on any platform."""
    w = _raw_words(Seed(42), 1, 3)
    assert [int(x) for x in w] == [
        17997432562728081993,
        4639592466314479435,
        5063055524208479906,
    ]
    w2 = _raw_words(Seed(42, 5), 1, 3)
    assert [int(x) for x in w2] == [
        14745312783233048384,
        8620573260488863275,
        6416601765489334277,
    ]


def test_raw_words_label_independence():
    a = _raw_words(Seed(9), 1, 64)
    b = _raw_words(Seed(9), 2, 64)
    assert not np.array_equal(a, b)
    # prefix property: asking for fewer words gives a prefix of the same stream
    assert np.array_equal(_raw_words(Seed(9), 1, 16), a[:16])


def test_bernoulli_sensing_values():
    phi = gen_bernoulli_sensing(4, 8, Seed(42))
    assert phi.shape == (4, 8)
    assert np.all(np.abs(phi) == 0.5)  # +-1/sqrt(4)
    assert phi[0, 0] == 0.5 and phi[0, 1] == -0.5
    again = gen_bernoulli_sensing(4, 8, Seed(42))
    assert np.array_equal(phi, again)
    other = gen_bernoulli_sensing(4, 8, Seed(43))
    assert not np.array_equal(phi, other)


def test_bernoulli_sensing_column_norms():
    # power-of-four row counts make 1/sqrt(n) exact in binary
    for n in (4, 16, 64):
        phi = gen_bernoulli_sensing(n, 7, Seed(1))
        assert np.array_equal((phi**2).sum(axis=0), np.ones(7))
    phi = gen_bernoulli_sensing(5, 7, Seed(1))
    assert np.max(np.abs((phi**2).sum(axis=0) - 1.0)) <= 1e-12


def test_bernoulli_sign_balance():
    phi = gen_bernoulli_sensing(1000, 1000, Seed(123))
    frac = np.mean(phi > 0)
    assert abs(frac - 0.5) <= 0.004


def test_bernoulli_rejects_bad_shapes():
    with pytest.raises(ValueError):
        gen_bernoulli_sensing(0, 4, Seed(0))
    with pytest.raises(ValueError):
        gen_bernoulli_sensing(4, 0, Seed(0))


def test_bernoulli_refuses_more_entries_than_the_largest_sign_matrix(monkeypatch):
    # the size check comes before the draw: a drawing stub stands in for the
    # 2^28 words (2 GiB) that the largest allowed size would take
    from riplab import randgen

    class Drawn(Exception):
        pass

    def no_draw(seed, label, count):
        raise Drawn(count)

    monkeypatch.setattr(randgen, "_signs", no_draw)
    cap = MAX_GRAPH_VERTICES
    assert cap * cap == 2**28
    for rows, cols in ((cap + 1, cap), (cap, cap + 1), (16, 2**24 + 1), (10**5, 10**5)):
        with pytest.raises(ValueError, match=f"at most {2**28} entries, got {rows}x{cols}"):
            gen_bernoulli_sensing(rows, cols, Seed(0))
    for rows, cols in ((cap, cap), (16, 2**24)):
        with pytest.raises(Drawn):
            gen_bernoulli_sensing(rows, cols, Seed(0))


@pytest.mark.parametrize("n", [1, 2, 7, 400])
def test_signed_adjacency_matches_the_where_reference(n):
    rng = np.random.default_rng(n)
    upper = np.triu(rng.random((n, n)) < 0.5, 1)
    for adj in (np.zeros((n, n), dtype=bool), ~np.eye(n, dtype=bool), upper | upper.T):
        g = Graph(n, adj)
        want = np.where(adj, 1.0, -1.0)
        np.fill_diagonal(want, 0.0)
        got = g.signed_adjacency()
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_model_a_basic_properties():
    a = gen_model_a(5, Seed(7))
    assert a.shape == (5, 5)
    assert np.array_equal(a, a.T)
    assert np.array_equal(np.diag(a), np.zeros(5))
    off = a[np.triu_indices(5, 1)]
    assert set(np.unique(off)) <= {-1.0, 1.0}
    assert np.array_equal(a, gen_model_a(5, Seed(7)))


def test_model_a_frozen_sample():
    a = gen_model_a(5, Seed(7)).astype(int)
    want = np.array(
        [
            [0, -1, 1, -1, -1],
            [-1, 0, -1, -1, 1],
            [1, -1, 0, 1, -1],
            [-1, -1, 1, 0, -1],
            [-1, 1, -1, -1, 0],
        ]
    )
    assert np.array_equal(a, want)


def test_model_b_from_model_a():
    b = gen_model_b(4, 0.3, Seed(3))
    a = gen_model_a(4, Seed(3))
    assert np.array_equal(b, np.eye(4) + 0.3 * a / np.sqrt(4))
    assert np.array_equal(np.diag(b), np.ones(4))
    assert b[0, 1] == -0.15
    with pytest.raises(ValueError):
        gen_model_b(4, 0.0, Seed(3))
    with pytest.raises(ValueError):
        gen_model_b(4, -0.1, Seed(3))
    for c in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"got {c}"):
            gen_model_b(4, c, Seed(3))


@pytest.mark.parametrize("n", [1, 2, 7, 64, 301])
def test_model_b_matches_the_out_of_place_sum_bit_for_bit(n):
    # 5e-324 / sqrt(n) rounds to 0 for n > 1, so -1 * s is -0.0 there
    for c in (0.3, 1e-3, 2.5, 5e-324):
        want = np.eye(n) + (c / np.sqrt(float(n))) * gen_model_a(n, Seed(n))
        assert gen_model_b(n, c, Seed(n)).tobytes() == want.tobytes(), c


def test_model_b_peaks_near_one_matrix():
    """Model B is built in the model-A matrix it scales: at n = 2000 the
    peak stays within 1.2 n^2 doubles, the matrix and the graph's bool
    adjacency it comes from."""
    n = 2000
    tracemalloc.start()
    try:
        gen_model_b(n, 0.3, Seed(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 8 * n * n, peak / (8 * n * n)


def test_model_a_spectral_concentration():
    """All 50 draws at k=500 stay under the 3*sqrt(k) envelope."""
    k = 500
    bound = 3.0 * math.sqrt(k)
    top = []
    for s in range(50):
        a = gen_model_a(k, Seed(s))
        top.append(np.linalg.eigvalsh(a)[-1])
    assert max(top) < bound


def test_gnp_matches_model_a_signs():
    # same seed: the graph is exactly the +1 pattern of the sign matrix
    for s in (0, 7, 19):
        g = gen_gnp_half(6, Seed(s))
        a = gen_model_a(6, Seed(s))
        assert np.array_equal(g.adj, a > 0)


def test_gnp_frozen_edges():
    g = gen_gnp_half(6, Seed(7))
    assert [tuple(e) for e in g.edges()] == [(0, 2), (1, 3), (1, 4), (2, 5), (3, 4)]


@pytest.mark.parametrize("n", [1, 2, 3, 24, 400])
def test_gnp_upper_triangle_is_the_sign_words_in_row_major_order(n):
    g = gen_gnp_half(n, Seed(11))
    words = _raw_words(Seed(11), _LABEL_SYM, n * (n - 1) // 2)
    assert np.array_equal(g.adj[np.triu_indices(n, 1)], (words & np.uint64(1)) == 1)
    assert np.array_equal(g.adj, g.adj.T)
    assert not np.diag(g.adj).any()


def test_gnp_edge_concentration():
    """Edge count within 4 sigma of n(n-1)/4 for 50 draws at n=40."""
    n = 40
    pairs = n * (n - 1) // 2
    mean = pairs / 2.0
    sigma = np.sqrt(pairs * 0.25)
    for s in range(50):
        m = len(gen_gnp_half(n, Seed(s)).edges())
        assert abs(m - mean) <= 4.0 * sigma


def test_gnp_small_graph_uniformity():
    """n=16 graphs hashed to 64 buckets: chi-square under the 99.9% line."""
    counts = np.zeros(64)
    for s in range(640):
        g = gen_gnp_half(16, Seed(s))
        h = hashlib.sha256(np.packbits(g.adj).tobytes()).digest()
        counts[h[0] % 64] += 1
    expect = 640 / 64.0
    chi2 = float(((counts - expect) ** 2 / expect).sum())
    assert chi2 < 103.4  # chi2.ppf(0.999, 63)


def test_graph_validation_and_helpers():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert g.adj[0, 1] and g.adj[2, 1] and not g.adj[0, 3]
    assert g.missing_edge((0, 1)) is None
    assert g.missing_edge((0, 1, 2)) == (0, 2)
    assert g.missing_edge((2, 1, 0, 3)) == (0, 2)  # lexicographically first
    assert g.missing_edge((1, 2)) is None and g.missing_edge(()) is None
    with pytest.raises(ValueError, match="vertex -1 out of range for n=4"):
        g.missing_edge((-1, 0, 9))
    assert g.missing_edge(v for v in (0, 1)) is None  # a generator is read once
    with pytest.raises(ValueError, match="distinct"):
        g.missing_edge(v for v in (1, 2, 1))
    assert g == Graph.from_edges(4, [(1, 2), (0, 1)])
    with pytest.raises(ValueError):
        Graph(0)
    for too_big in (lambda n: Graph(n), lambda n: Graph.from_edges(n, [(0, 1)]),
                    lambda n: gen_gnp_half(n, Seed(0))):
        with pytest.raises(ValueError, match=f"1 to {MAX_GRAPH_VERTICES} vertices"):
            too_big(MAX_GRAPH_VERTICES + 1)
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 5)])
    bad = np.zeros((3, 3), dtype=bool)
    bad[0, 1] = True  # asymmetric
    with pytest.raises(ValueError):
        Graph(3, bad)


def test_graph_refuses_a_misshapen_adjacency_and_self_loops():
    with pytest.raises(ValueError, match=r"adjacency shape \(3, 4\) does not match n=3"):
        Graph(3, np.zeros((3, 4), dtype=bool))
    with pytest.raises(ValueError, match=r"adjacency shape \(4, 4\) does not match n=3"):
        Graph(3, np.zeros((4, 4), dtype=bool))
    with pytest.raises(ValueError, match="self-loops are not allowed"):
        Graph(3, np.eye(3, dtype=bool))


def test_edges_are_a_contiguous_int64_argwhere_of_the_upper_triangle(tmp_path):
    graphs = [Graph(1), Graph(7), Graph(7, ~np.eye(7, dtype=bool)), gen_gnp_half(50, Seed(4)),
              plant_clique(gen_gnp_half(50, Seed(4)), 9, Seed(5)).graph]
    for g in graphs:
        e = g.edges()
        assert e.dtype == np.int64 and e.flags.c_contiguous, g
        want = np.argwhere(np.triu(g.adj, 1))
        assert e.shape == (len(want), 2) and np.array_equal(e, want), g
        path = tmp_path / "g.txt"
        write_graph_file(path, g)
        assert read_graph_file(path) == g


def test_plant_clique_examples():
    g = gen_gnp_half(6, Seed(7))
    inst = plant_clique(g, 3, Seed(9))
    assert inst.planted == (1, 2, 3)
    assert len(inst.planted) == 3
    assert inst.graph.missing_edge(inst.planted) is None
    # planting only ever adds edges
    for u, v in g.edges():
        assert inst.graph.adj[u, v]
    assert [tuple(e) for e in inst.graph.edges()] == [
        (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 4),
    ]


def test_plant_clique_copies_its_input_once():
    g = gen_gnp_half(8, Seed(3))
    before = g.adj.copy()
    inst = plant_clique(g, 5, Seed(4))
    assert np.array_equal(g.adj, before)  # the input graph is not modified
    assert not np.shares_memory(inst.graph.adj, g.adj)
    assert inst.graph.missing_edge(inst.planted) is None


def test_graph_is_unhashable():
    # Graph defines __eq__ over its mutable adjacency, so it has no hash
    with pytest.raises(TypeError):
        hash(Graph(2))


def test_plant_clique_full_and_single():
    g = gen_gnp_half(5, Seed(2))
    full = plant_clique(g, 5, Seed(0))
    assert full.planted == (0, 1, 2, 3, 4)
    assert len(full.graph.edges()) == 10  # complete graph
    one = plant_clique(g, 1, Seed(0))
    assert len(one.planted) == 1
    assert one.graph == g  # a single vertex adds nothing


def test_plant_clique_member_uniformity():
    """Each vertex of a 6-vertex graph lands in a size-3 clique about
    3/6 of the time over 600 draws."""
    g = gen_gnp_half(6, Seed(0))
    hits = np.zeros(6)
    for s in range(600):
        inst = plant_clique(g, 3, Seed(0).child(4, s))
        for v in inst.planted:
            hits[v] += 1
    frac = hits / 600.0
    assert np.all(np.abs(frac - 0.5) < 0.1)


def test_plant_clique_validation():
    g = gen_gnp_half(4, Seed(1))
    with pytest.raises(ValueError):
        plant_clique(g, 0, Seed(0))
    with pytest.raises(ValueError):
        plant_clique(g, 5, Seed(0))
