"""Seeded input generators and independent answers for the riplab benchmark.

Nothing here calls into riplab: the matrices and graphs are drawn with
numpy's own generator and written in riplab's plain-text formats, and the
answers the benchmark checks the program against (the planted stop rank, the
knife-edge eigenvalue, the reduction identity) are derived here from the
inputs alone.
"""

import math

import numpy as np


def rng_for(seed, *labels):
    """Generator for one labelled piece of a workload; same labels, same draws."""
    return np.random.default_rng([int(seed), *(int(x) for x in labels)])


def cli_seed(seed, *labels):
    """A 62-bit seed to pass to ``rip-lab --seed`` for one labelled op."""
    return int(rng_for(seed, *labels).integers(1 << 62))


def unrank(rank, n, k):
    """The k-subset of range(n) at lexicographic rank ``rank``."""
    if not 0 <= rank < math.comb(n, k):
        raise ValueError(f"rank {rank} out of range for C({n},{k})")
    out = []
    c = 0
    for slots in range(k, 0, -1):
        while True:
            below = math.comb(n - 1 - c, slots - 1)
            if rank < below:
                out.append(c)
                c += 1
                break
            rank -= below
            c += 1
    return tuple(out)


def deviations(phi, subsets):
    """max |eig(G_S) - 1| of the column Gram matrix for each subset S."""
    cols = phi[:, np.asarray(subsets, dtype=np.intp)]          # rows x s x k
    sub = np.einsum("rsi,rsj->sij", cols, cols)
    w = np.linalg.eigvalsh(sub)
    return np.maximum(np.abs(w[:, 0] - 1.0), np.abs(w[:, -1] - 1.0))


def background_bound(phi, planted):
    """Upper bound on the deviation of every 3-subset other than ``planted``.

    Subsets holding two planted columns are evaluated exactly; every other
    subset holds at most one, so its off-diagonal Gram entries all come from
    pairs outside the planted cluster and Gershgorin bounds its deviation by
    twice the largest of those entries (plus the columns' norm error).
    """
    cols = phi.shape[1]
    g = phi.T @ phi
    norm_err = float(np.max(np.abs(np.diag(g) - 1.0)))
    off = np.abs(g)
    np.fill_diagonal(off, 0.0)
    idx = np.asarray(planted)
    off[np.ix_(idx, idx)] = 0.0
    gersh = 2.0 * float(off.max()) + norm_err + 1e-12
    others = [x for x in range(cols) if x not in planted]
    pairs = [(planted[0], planted[1]), (planted[0], planted[2]), (planted[1], planted[2])]
    two = [tuple(sorted((a, b, x))) for a, b in pairs for x in others]
    return max(gersh, float(deviations(phi, two).max()))


def planted_cluster(rng, rows, cols, rank, flip_frac=0.1, margin=0.2):
    """Bernoulli +-1/sqrt(rows) matrix whose 3-subset at ``rank`` is a cluster.

    The cluster's second and third columns copy its first with
    round(flip_frac * rows) signs flipped each, so every column keeps unit
    norm.  Returns (phi, subset, threshold): the threshold sits midway between
    the cluster's deviation and a certified bound on every other subset, so
    a threshold scan must stop exactly at ``rank``.  Draws are repeated until
    that gap is at least ``margin``.
    """
    subset = unrank(rank, cols, 3)
    nflip = round(flip_frac * rows)
    while True:
        phi = rng.choice([-1.0, 1.0], size=(rows, cols)) / math.sqrt(rows)
        base = phi[:, subset[0]]
        for c in subset[1:]:
            col = base.copy()
            col[rng.choice(rows, size=nflip, replace=False)] *= -1.0
            phi[:, c] = col
        planted_dev = float(deviations(phi, [subset])[0])
        bound = background_bound(phi, subset)
        if planted_dev - bound >= margin:
            return phi, subset, (planted_dev + bound) / 2.0


def complete_graph(n):
    """Adjacency of K_n; its signed adjacency has lambda_1 = n - 1."""
    return ~np.eye(n, dtype=bool)


def complete_tripartite(a, rng):
    """Adjacency of K_{a,a,a} with seeded vertex labels; lambda_1 = a + 1.

    The signed adjacency is J - 2B + I, B the block-diagonal all-ones matrix
    of the parts, so the all-ones vector gives 3a - 2a + 1.
    """
    part = rng.permutation(3 * a) % 3
    return part[:, None] != part[None, :]


def write_matrix(path, m):
    """riplab matrix file: 'rows cols', then shortest round-trip floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{m.shape[0]} {m.shape[1]}\n")
        for row in m:
            fh.write(" ".join(repr(float(v)) for v in row))
            fh.write("\n")


def write_graph(path, adj):
    """riplab graph file: 'n m', then edges 'u v' with u < v in order."""
    u, v = np.nonzero(np.triu(adj, 1))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{adj.shape[0]} {len(u)}\n")
        fh.write("".join(f"{a} {b}\n" for a, b in zip(u.tolist(), v.tolist())))


def read_matrix(path):
    with open(path, encoding="utf-8") as fh:
        rows, cols = (int(x) for x in fh.readline().split())
        data = np.array(fh.read().split(), dtype=np.float64)
    return data.reshape(rows, cols)


def read_graph(path):
    """(n, edge count, adjacency) of a riplab graph file."""
    with open(path, encoding="utf-8") as fh:
        n, m = (int(x) for x in fh.readline().split())
        ends = np.array(fh.read().split(), dtype=np.int64).reshape(-1, 2)
    if len(ends) != m:
        raise ValueError(f"{path}: header says {m} edges, file has {len(ends)}")
    adj = np.zeros((n, n), dtype=bool)
    adj[ends[:, 0], ends[:, 1]] = True
    adj |= adj.T
    return n, m, adj


def signed_lambda1(adj):
    """Largest eigenvalue of the +-1 signed adjacency (zero diagonal)."""
    a = np.where(adj, 1.0, -1.0)
    np.fill_diagonal(a, 0.0)
    return float(np.linalg.eigvalsh(a)[-1])


def reduction_error(adj, factor, c):
    """max |R^T R - (I + c*A/sqrt(n))| for a claimed reduction factor R."""
    n = adj.shape[0]
    a = np.where(adj, 1.0, -1.0)
    np.fill_diagonal(a, 0.0)
    target = np.eye(n) + (c / math.sqrt(n)) * a
    return float(np.max(np.abs(factor.T @ factor - target)))
