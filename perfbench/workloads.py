"""The benchmark's workloads: seeded inputs, op menus and output checks.

A workload runs in rounds.  ``prepare(rnd)`` writes round ``rnd``'s input
files (untimed); ``ops(rnd)`` lists that round's CLI ops, one per menu entry
(threshold scans have two per shape), always in the same order.
Set-up warms up with round 0's first op of each family, so the first timed
round repeats those commands and the determinism guard compares the two.  Every op
writes a JSON report through ``--out``/``--report``; its check returns the
problems found in it, judged against answers derived from the inputs alone.
"""

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

EXACT_MAX = "ExactMax"
LOWER_BOUND = "LowerBound"
VIOLATES = "violates-rip"


@dataclass
class Op:
    entry: str                 # menu entry: the unit per-entry medians are taken over
    family: str                # metric family (exact, lazy, experiment, generate, ...)
    argv: list
    report: Path               # JSON report the op writes
    check: Callable            # report dict -> list of problems
    outputs: tuple = ()        # files whose bytes join the determinism digest


def _op(d, entry, family, argv, flag, check, outputs=(), tag=None):
    """Op whose report goes to ``<d>/<tag or entry>.report.json`` via ``flag``."""
    report = d / f"{tag or entry}.report.json"
    return Op(entry, family, argv + [flag, str(report)], report, check, outputs)


def _check_full_scan(matrix, order, subset_deviation):
    def check(doc):
        res = doc["results"]
        rep, wit = res["report"], res["witness"]
        phi = inputs.read_matrix(matrix)
        total = math.comb(phi.shape[1], order)
        bad = []
        if rep["direction"] != EXACT_MAX:
            bad.append(f"direction {rep['direction']}, expected {EXACT_MAX}")
        if rep["subsets_examined"] != total:
            bad.append(f"examined {rep['subsets_examined']}, expected C(N,k) = {total}")
        dev = subset_deviation(phi, wit["subset"])
        if abs(wit["deviation"] - dev) > 1e-12 or abs(rep["value"] - dev) > 1e-12:
            bad.append(f"witness {wit['subset']} deviation {wit['deviation']!r}, "
                       f"value {rep['value']!r}, recomputed {dev!r}")
        return bad
    return check


def _check_lazy(matrix, probe, delta):
    def check(doc):
        res = doc["results"]
        cert, rep = res["certificate"], res["probe_report"]
        phi = inputs.read_matrix(matrix)
        cap = min(phi.shape)
        eps, k_max = cert["probe_parameter"], cert["max_certified_order"]
        bad = []
        if rep["subsets_examined"] != math.comb(phi.shape[1], probe) or rep["direction"] != EXACT_MAX:
            bad.append(f"probe scan {rep['direction']} over {rep['subsets_examined']} subsets")

        def lift(k):
            return eps * (k - 1) / (probe - 1)

        if k_max == 0:
            if not eps > delta:
                bad.append(f"k_max 0 but eps {eps!r} <= delta {delta}")
        elif lift(k_max) > delta or (k_max < cap and lift(k_max + 1) <= delta):
            bad.append(f"k_max {k_max} is not the largest order with lift <= {delta} (eps {eps!r})")
        return bad
    return check


def _check_stop(rank, subset, threshold):
    def check(doc):
        rep, wit = doc["results"]["report"], doc["results"]["witness"]
        bad = []
        if rep["direction"] != LOWER_BOUND:
            bad.append(f"direction {rep['direction']}, expected {LOWER_BOUND}")
        if rep["subsets_examined"] != rank + 1:
            bad.append(f"examined {rep['subsets_examined']}, expected planted rank + 1 = {rank + 1}")
        if tuple(wit["subset"]) != subset:
            bad.append(f"witness {wit['subset']}, expected planted {list(subset)}")
        if not rep["value"] > threshold:
            bad.append(f"value {rep['value']!r} not above threshold {threshold!r}")
        return bad
    return check


def _check_experiment(doc):
    p, res = doc["params"], doc["results"]
    n, k, c, delta = res["n"], res["k"], res["c"], res["delta"]
    w = min(res["clique_size"], k)
    clique_dev = c * (w - 1) / math.sqrt(n)
    bad = []
    trials = res["trials"]
    if len(trials) != 2 * p["trials"]:
        bad.append(f"{len(trials)} trial records for {p['trials']} trials")
    for t in trials:
        s, flagged = t["statistic"], t["decision"] == VIOLATES
        if t["arm"] == "null":
            crosses = s >= res["threshold"] if res["null_statistic"] == "lambda1" else s > delta
        else:
            crosses = s > delta
            if s != 1.0 and abs(s - clique_dev) > 1e-8:
                bad.append(f"planted statistic {s!r}, expected c(k-1)/sqrt(n) = {clique_dev!r}")
        if flagged != crosses:
            bad.append(f"{t['arm']} trial flagged={flagged} with statistic {s!r}")
    sep = res["separation"]
    tp = sum(t["arm"] == "planted" and t["decision"] == VIOLATES for t in trials)
    fp = sum(t["arm"] == "null" and t["decision"] == VIOLATES for t in trials)
    if (sep["true_positives"], sep["false_positives"]) != (tp, fp):
        bad.append(f"separation {sep} disagrees with decisions tp={tp} fp={fp}")
    return bad


def _check_decision(expected):
    def check(doc):
        got = doc["results"]["decision"]
        return [] if got == expected else [f"decision {got!r}, expected {expected!r}"]
    return check


class CertifyScan:
    """Full exact scans and a lazy probe: enumeration in certify does the work."""

    SHAPES = [(24, 48, 4), (40, 160, 3), (20, 36, 5), (64, 1024, 2)]
    LAZY = (64, 128, 3, 0.9)     # rows, cols, probe order, target delta

    def __init__(self, seed, d, workers, cli, riplab):
        self.seed, self.d, self.workers, self.cli = seed, d, workers, cli
        self.subset_deviation = riplab.certify.subset_deviation

    def _matrix(self, i):
        return self.d / f"bern{i}.txt"

    def prepare(self, rnd):
        dims = [s[:2] for s in self.SHAPES] + [self.LAZY[:2]]
        for i, (rows, cols) in enumerate(dims):
            self.cli(["generate", "bernoulli", "--dims", str(rows), str(cols),
                      "--seed", str(inputs.cli_seed(self.seed, i, rnd)),
                      "--out", str(self._matrix(i))])

    def ops(self, rnd):
        ops = []
        for i, (rows, cols, k) in enumerate(self.SHAPES):
            m = self._matrix(i)
            ops.append(_op(self.d, f"exact-{rows}x{cols}-k{k}", "exact",
                           ["exact", "--matrix", str(m), "--order", str(k),
                            "--workers", str(self.workers)],
                           "--out", _check_full_scan(m, k, self.subset_deviation)))
        rows, cols, probe, delta = self.LAZY
        m = self._matrix(len(self.SHAPES))
        ops.append(_op(self.d, f"lazy-{rows}x{cols}-m{probe}", "lazy",
                       ["lazy", "--matrix", str(m), "--probe-order", str(probe),
                        "--delta", repr(delta), "--workers", str(self.workers)],
                       "--out", _check_lazy(m, probe, delta)))
        return ops


class CertifyStop:
    """Threshold scans that stop at a planted rank, plus an exact-null experiment."""

    SHAPES = [(96, 160), (128, 200)]
    EXPERIMENT = ["experiment", "--null-stat", "exact", "--n", "24", "--clique-size", "6",
                  "--order", "4", "--delta", "0.3", "--rect-cols", "24", "--trials", "4"]

    def __init__(self, seed, d, workers, cli, riplab):
        self.seed, self.d, self.workers = seed, d, workers
        self.planted = {}

    def prepare(self, rnd):
        # Each round plants a shape's cluster twice, at rank r and at its
        # mirror C - 1 - r.  Both ranks are uniform, and every round examines
        # exactly C + 1 subsets per shape, so the work in a run does not
        # swing with the seed.
        for j, (rows, cols) in enumerate(self.SHAPES):
            total = math.comb(cols, 3)
            r = int(inputs.rng_for(self.seed, 10 + j, rnd).integers(total))
            for v, rank in enumerate((r, total - 1 - r)):
                rng = inputs.rng_for(self.seed, 10 + j, rnd, 1 + v)
                phi, subset, threshold = inputs.planted_cluster(rng, rows, cols, rank)
                path = self.d / f"stop{j}{v}.txt"
                inputs.write_matrix(path, phi)
                self.planted[j, v] = (path, rank, subset, threshold)

    def ops(self, rnd):
        def stop(j, v):
            rows, cols = self.SHAPES[j]
            path, rank, subset, threshold = self.planted[j, v]
            name = f"stop-{rows}x{cols}-k3"
            return _op(self.d, name, "stop",
                       ["exact", "--matrix", str(path), "--order", "3",
                        "--threshold", repr(threshold), "--workers", str(self.workers)],
                       "--out", _check_stop(rank, subset, threshold), tag=f"{name}-{v}")

        experiment = _op(self.d, "experiment-exact-n24-k4", "experiment",
                         self.EXPERIMENT + ["--seed", str(inputs.cli_seed(self.seed, 20, rnd))],
                         "--out", _check_experiment)
        return [stop(0, 0), stop(1, 0), experiment, stop(0, 1), stop(1, 1)]


class GraphPipeline:
    """Generate, reduce and refute n=1000 graphs; knife-edge refutes; experiments."""

    N, T, C = 1000, 20, 0.3
    KNIFE_N = 60        # K_60 at k = 60
    KNIFE_A = 20        # K_{20,20,20} at k = 22

    def __init__(self, seed, d, workers, cli, riplab):
        self.seed, self.d = seed, d
        self.graph = d / "planted.txt"
        self.factor = d / "factor.txt"
        a = self.KNIFE_A
        self.knife = [(d / "complete.txt", self.KNIFE_N, f"refute-knife-K{self.KNIFE_N}"),
                      (d / "tripartite.txt", a + 2, f"refute-knife-K{a},{a},{a}")]
        self.adj = None

    def prepare(self, rnd):
        inputs.write_graph(self.knife[0][0], inputs.complete_graph(self.KNIFE_N))
        inputs.write_graph(self.knife[1][0], inputs.complete_tripartite(
            self.KNIFE_A, inputs.rng_for(self.seed, 30, rnd)))

    def _check_generate(self, doc):
        res = doc["results"]
        clique = res["clique"]
        n, m, adj = inputs.read_graph(self.graph)
        self.adj = adj
        bad = []
        if (res["n"], n) != (self.N, self.N) or m != res["edges"]:
            bad.append(f"graph n={n} m={m}, report n={res['n']} edges={res['edges']}")
        if clique != sorted(set(clique)) or len(clique) != self.T or not 0 <= clique[0] <= clique[-1] < n:
            bad.append(f"planted set {clique} is not {self.T} distinct sorted vertices")
        elif not adj[np.ix_(clique, clique)][~np.eye(self.T, dtype=bool)].all():
            bad.append("planted set is not a clique in the written graph")
        return bad

    def _check_reduce(self, doc):
        res = doc["results"]
        bad = []
        if res["n"] != self.N:
            bad.append(f"n={res['n']}")
        factor = inputs.read_matrix(self.factor)
        if res["not_psd"]:
            lam1 = inputs.signed_lambda1(~self.adj & ~np.eye(self.N, dtype=bool))
            # lambda_min(A) = -lambda_1(-A); -A is the signed adjacency of the complement
            if 1.0 - self.C * lam1 / math.sqrt(self.N) >= 0.0 or factor.any():
                bad.append("reported not PSD, but I + cA/sqrt(n) is PSD or the factor is nonzero")
        elif np.tril(factor, -1).any():
            bad.append("factor is not upper triangular")
        else:
            err = inputs.reduction_error(self.adj, factor, self.C)
            if err > 1e-9:
                bad.append(f"max |R^T R - (I + cA/sqrt(n))| = {err:.3e}")
        return bad

    def ops(self, rnd):
        d = self.d
        g = str(self.graph)
        ops = [
            _op(d, f"generate-planted-n{self.N}", "generate",
                ["generate", "planted", "--n", str(self.N), "--t", str(self.T),
                 "--seed", str(inputs.cli_seed(self.seed, 31, rnd)), "--out", g],
                "--report", self._check_generate, outputs=(self.graph,)),
            _op(d, f"reduce-n{self.N}", "reduce",
                ["reduce", "--graph", g, "--out", str(self.factor)],
                "--report", self._check_reduce, outputs=(self.factor,)),
            # the planted clique (checked above) forces lambda_1 >= k - 1: "yes"
            _op(d, f"refute-n{self.N}-k{self.T}", "refute",
                ["refute", "--graph", g, "--k", str(self.T)], "--report", _check_decision("yes")),
        ]
        # knife edges: lambda_1 = k - 1 exactly, so the decision is "yes"
        for path, k, name in self.knife:
            ops.append(_op(d, name, "refute_knife", ["refute", "--graph", str(path), "--k", str(k)],
                           "--report", _check_decision("yes")))
        for i, preset in enumerate(("desk-200-k35", "desk-400")):
            ops.append(_op(d, f"experiment-{preset}", "experiment",
                           ["experiment", "--preset", preset,
                            "--seed", str(inputs.cli_seed(self.seed, 32 + i, rnd))],
                           "--out", _check_experiment))
        return ops


class Certify:
    """CertifyScan's full scans and CertifyStop's threshold scans and
    experiment in one round: certify does the work, used both ways."""

    def __init__(self, *args):
        self.parts = [CertifyScan(*args), CertifyStop(*args)]

    def prepare(self, rnd):
        for part in self.parts:
            part.prepare(rnd)

    def ops(self, rnd):
        return [op for part in self.parts for op in part.ops(rnd)]


WORKLOADS = {"certify": Certify, "graph-pipeline": GraphPipeline}
