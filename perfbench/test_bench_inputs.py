"""Tests of the benchmark's own input generators and independent answers.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import itertools
import math

import numpy as np
import pytest

import inputs
from riplab.certify import subset_deviation
from riplab.fileio import read_graph_file, read_matrix_file


@pytest.mark.parametrize("n,k", [(7, 3), (9, 4), (6, 1), (8, 8)])
def test_unrank_follows_lexicographic_order(n, k):
    for rank, subset in enumerate(itertools.combinations(range(n), k)):
        assert inputs.unrank(rank, n, k) == subset


@pytest.mark.parametrize("seed", range(30))
def test_planted_cluster_is_first_subset_over_threshold(seed):
    rows, cols = 96, 20
    rng = inputs.rng_for(seed, 99)
    rank = int(rng.integers(math.comb(cols, 3)))
    phi, subset, threshold = inputs.planted_cluster(rng, rows, cols, rank)
    assert subset == inputs.unrank(rank, cols, 3)
    assert np.allclose(np.linalg.norm(phi, axis=0), 1.0, atol=1e-12)
    assert subset_deviation(phi, subset) > threshold
    for r, s in enumerate(itertools.combinations(range(cols), 3)):
        if r == rank:
            break
        assert subset_deviation(phi, s) < threshold, (seed, r, s)


def test_threshold_separates_planted_subset_at_bench_shape():
    rows, cols = 96, 160
    rng = inputs.rng_for(7, rows)
    rank = int(rng.integers(math.comb(cols, 3)))
    phi, subset, threshold = inputs.planted_cluster(rng, rows, cols, rank)
    combos = itertools.combinations(range(cols), 3)
    while chunk := list(itertools.islice(combos, 100_000)):
        over = [s for s, d in zip(chunk, inputs.deviations(phi, chunk)) if d > threshold]
        assert over in ([], [subset])


@pytest.mark.parametrize("n", [48, 60, 72])
def test_complete_graph_lambda1(n):
    assert abs(inputs.signed_lambda1(inputs.complete_graph(n)) - (n - 1)) <= 1e-9


@pytest.mark.parametrize("a", [16, 20, 24])
def test_complete_tripartite_lambda1(a):
    adj = inputs.complete_tripartite(a, inputs.rng_for(a))
    assert adj.sum(axis=1).tolist() == [2 * a] * (3 * a)
    assert abs(inputs.signed_lambda1(adj) - (a + 1)) <= 1e-9


def test_files_round_trip_through_riplab_readers(tmp_path):
    rng = inputs.rng_for(3)
    m = rng.standard_normal((5, 7))
    inputs.write_matrix(tmp_path / "m.txt", m)
    assert np.array_equal(read_matrix_file(tmp_path / "m.txt"), m)
    assert np.array_equal(inputs.read_matrix(tmp_path / "m.txt"), m)
    adj = inputs.complete_tripartite(4, rng)
    inputs.write_graph(tmp_path / "g.txt", adj)
    assert np.array_equal(read_graph_file(tmp_path / "g.txt").adj, adj)
    n, m_edges, parsed = inputs.read_graph(tmp_path / "g.txt")
    assert (n, m_edges) == (12, 48) and np.array_equal(parsed, adj)


def test_reduction_error_accepts_the_true_factor_only():
    adj = inputs.complete_tripartite(5, inputs.rng_for(4))
    n, c = adj.shape[0], 0.3
    a = np.where(adj, 1.0, -1.0)
    np.fill_diagonal(a, 0.0)
    factor = np.linalg.cholesky(np.eye(n) + c / math.sqrt(n) * a).T
    assert inputs.reduction_error(adj, factor, c) < 1e-12
    factor[0, 1] += 1e-6
    assert inputs.reduction_error(adj, factor, c) > 1e-7
