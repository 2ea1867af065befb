"""Counter-based random models: seeded matrices, graphs, and clique planting.

Everything here is driven by Philox-4x64 raw counter words, so a (Seed, shape)
pair gives bitwise-identical output on every platform and any draw can be
reproduced without replaying earlier draws.  The same word stream backs the
symmetric sign matrix and the G(n, 1/2) graph, which keeps the two models
aligned: the signed adjacency of ``gen_gnp_half(n, s)`` equals
``gen_model_a(n, s)`` entry for entry.

Substreams are separated by a small integer label placed in the Philox counter
block; seeds for independent subtasks are derived with ``Seed.child``.
"""

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Counter labels: one per kind of object drawn from a seed.
_LABEL_SYM = 1      # upper-triangle signs shared by model A and G(n, 1/2)
_LABEL_DENSE = 2    # dense Bernoulli sensing entries
_LABEL_PLANT = 3    # vertex selection words for clique planting


def _mix64(x):
    # splitmix64 finalizer; good avalanche, cheap, stable across platforms
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(frozen=True)
class Seed:
    """Root of a reproducible random stream.

    ``value`` picks the stream content, ``stream`` selects an independent
    parallel family for the same value.  Use :meth:`child` to derive seeds
    for subtasks instead of arithmetic on ``value``.
    """

    value: int
    stream: int = 0

    def __post_init__(self):
        for field in ("value", "stream"):
            v = getattr(self, field)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise ValueError(f"seed {field} must be an integer, got {v!r}")
            if not 0 <= int(v) <= _MASK64:
                raise ValueError(f"seed {field} out of 64-bit range: {v}")
            object.__setattr__(self, field, int(v))  # plain ints, for reports

    def child(self, *labels):
        """Derive an independent child seed for a labeled subtask."""
        h = _mix64(self.value + _GOLDEN)
        h ^= _mix64(self.stream + 2 * _GOLDEN)
        h = _mix64(h)
        for i, lab in enumerate(labels):
            lab = int(lab)
            if lab < 0:
                raise ValueError("seed labels must be nonnegative")
            h = _mix64(h + lab + (i + 3) * _GOLDEN)
        return Seed(h, self.stream)


def _philox(seed, label):
    key = np.array([seed.value, seed.stream], dtype=np.uint64)
    counter = np.array([0, 0, int(label), 0], dtype=np.uint64)
    return np.random.Philox(counter=counter, key=key)


def _raw_words(seed, label, count):
    """``count`` Philox words for this seed/label, always the same ones."""
    return _philox(seed, label).random_raw(count)


def _signs(seed, label, count):
    # low bit of each word: 1 -> +1, 0 -> -1
    words = _raw_words(seed, label, count)
    return np.where(words & np.uint64(1), 1.0, -1.0)


# A graph's n sizes an n x n adjacency (and a generator's n(n-1)/2 sign
# words) before anything else is done with it.
MAX_GRAPH_VERTICES = 1 << 14


class Graph:
    """Undirected simple graph on vertices 0..n-1 with dense adjacency."""

    __slots__ = ("n", "adj")

    def __init__(self, n, adj=None):
        n = int(n)
        if not 1 <= n <= MAX_GRAPH_VERTICES:
            raise ValueError(f"graph needs 1 to {MAX_GRAPH_VERTICES} vertices, got n={n}")
        if adj is None:
            adj = np.zeros((n, n), dtype=bool)
        else:
            adj = np.asarray(adj, dtype=bool)
            if adj.shape != (n, n):
                raise ValueError(f"adjacency shape {adj.shape} does not match n={n}")
            if np.any(adj != adj.T):
                raise ValueError("adjacency must be symmetric")
            if np.any(np.diag(adj)):
                raise ValueError("self-loops are not allowed")
            adj = adj.copy()
        self.n = n
        self.adj = adj

    @classmethod
    def from_edges(cls, n, edges):
        """Graph on n vertices from (u, v) pairs, e.g. an (m, 2) integer array."""
        e = np.asarray(edges, dtype=np.int64).reshape(len(edges), 2)
        bad = np.flatnonzero((e[:, 0] == e[:, 1]) | ((e < 0) | (e >= n)).any(axis=1))
        if len(bad):
            u, v = e[bad[0]].tolist()
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        g = cls(n)
        g.adj[e, e[:, ::-1]] = True  # (u, v) and (v, u) for every edge
        return g

    def edge_count(self):
        return int(np.count_nonzero(self.adj) // 2)

    def edges(self):
        """All edges as an (m, 2) int64 array of rows u < v, in lexicographic order."""
        return np.argwhere(np.triu(self.adj, 1))

    def signed_adjacency(self):
        """Symmetric float matrix with zero diagonal, +1 on edges, -1 on non-edges."""
        a = np.where(self.adj, 1.0, -1.0)
        np.fill_diagonal(a, 0.0)
        return a

    def missing_edge(self, vertices):
        """The lexicographically first pair (u, v), u < v, of distinct in-range
        ``vertices`` that is not an edge, or None when they induce a clique."""
        vertices = [int(v) for v in vertices]
        idx = np.asarray(sorted(set(vertices)), dtype=np.intp)
        if len(idx) != len(vertices):
            raise ValueError("clique vertices must be distinct")
        bad = idx[(idx < 0) | (idx >= self.n)]
        if len(bad):
            raise ValueError(f"vertex {bad[0]} out of range for n={self.n}")
        pairs = np.argwhere(np.triu(~self.adj[np.ix_(idx, idx)], 1))
        return tuple(idx[pairs[0]].tolist()) if len(pairs) else None

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.adj, other.adj))

    __hash__ = None

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count()})"


@dataclass(frozen=True, eq=False)
class PlantedInstance:
    """A graph together with the vertex set whose clique was forced into it."""

    graph: Graph
    planted: tuple


def gen_bernoulli_sensing(n, cols, seed):
    """n x cols sensing matrix with i.i.d. entries +-1/sqrt(n).

    Every column has unit Euclidean norm (exactly when sqrt(n) is a power of
    two, to within a few ulp otherwise).
    """
    n, cols = int(n), int(cols)
    if n <= 0 or cols <= 0:
        raise ValueError(f"matrix dimensions must be positive, got {n}x{cols}")
    signs = _signs(seed, _LABEL_DENSE, n * cols)
    return signs.reshape(n, cols) / np.sqrt(float(n))


def gen_model_a(k, seed):
    """k x k symmetric sign matrix: zero diagonal, independent +-1 above it.

    It is the signed adjacency of ``gen_gnp_half(k, seed)``: +1 exactly on
    that graph's edges.
    """
    k = int(k)
    if k <= 0:
        raise ValueError(f"order must be positive, got {k}")
    return gen_gnp_half(k, seed).signed_adjacency()


def gen_model_b(n, c, seed):
    """I + c*A/sqrt(n) with A a model-A sign matrix; PSD with high probability
    once c < 1/3 and n is moderately large."""
    c = float(c)
    if not 0 < c < math.inf:
        raise ValueError(f"scale c must be finite and positive, got {c}")
    a = gen_model_a(n, seed)
    return np.eye(int(n)) + (c / np.sqrt(float(n))) * a


def gen_gnp_half(n, seed):
    """Erdos-Renyi G(n, 1/2), drawn from the same sign words as model A.

    An edge is present exactly where the model-A entry is +1, so downstream
    code may convert between the two without re-drawing randomness.
    """
    g = Graph(n)  # checks n before anything of its size is allocated
    # a boolean mask visits the upper triangle in row-major order
    upper = np.triu(np.ones((g.n, g.n), dtype=bool), 1)
    words = _raw_words(seed, _LABEL_SYM, g.n * (g.n - 1) // 2)
    words &= np.uint64(1)  # in place: the low bit of each word is its edge
    g.adj[upper] = words
    g.adj |= g.adj.T
    return g


def plant_clique(graph, size, seed):
    """Force a clique on ``size`` uniformly chosen vertices of a copy of ``graph``.

    Vertex selection is a partial Fisher-Yates shuffle driven by rejection
    sampling on raw Philox words, so the chosen set depends only on
    (seed, graph.n, size).  Returns a :class:`PlantedInstance`; the input
    graph is not modified.
    """
    size = int(size)
    n = graph.n
    if not 1 <= size <= n:
        raise ValueError(f"clique size must be in [1, {n}], got {size}")
    gen = _philox(seed, _LABEL_PLANT)

    def rand_below(bound):
        # rejection keeps the draw exactly uniform; zone is nearly all of 2^64
        zone = (2**64 // bound) * bound
        while True:
            w = int(gen.random_raw(1)[0])
            if w < zone:
                return w % bound

    order = list(range(n))
    for i in range(size):
        j = i + rand_below(n - i)
        order[i], order[j] = order[j], order[i]
    members = tuple(sorted(order[:size]))

    adj = graph.adj.copy()
    idx = np.asarray(members, dtype=np.intp)
    block = np.ix_(idx, idx)
    adj[block] = True
    adj[idx, idx] = False
    return PlantedInstance(Graph(n, adj), members)
