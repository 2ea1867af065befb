"""riplab benchmark: one closed-loop client driving the rip-lab CLI in-process.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository; the program is imported from its
``src/``.  The run writes its seeded inputs under ``.perfbench/`` in the
checkout, sets up three times (input generation and file writes plus the
warm-up ops of each family's first entry), then runs whole rounds of the
workload's op menu until ``--seconds`` have passed, each op sent only after
the previous one returned and timed beside a fixed host-speed probe.  Every op is checked against an answer derived from its inputs
and its report's results are digested for the determinism guard.

Stdout ends with the full report (every end-to-end metric, machine facts,
counts and, with ``--trace 1``, every per-layer metric), then one line of
JSON with the metrics ``BENCHMARK.json`` lists for this mode.
"""

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3


class Terminated(BaseException):
    """SIGTERM, raised through riplab (which catches Exception only), so that
    its process pools shut down and reap their workers before the run exits."""


def _terminate(signum, frame):
    raise Terminated


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import riplab from this checkout's src/; (riplab, seconds it took)."""
    src = ROOT / "src"
    if not (src / "riplab" / "cli.py").is_file():
        raise SystemExit(f"error: no riplab sources under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import riplab.cli
    import_s = time.perf_counter() - t0
    if Path(riplab.__file__).resolve().parent != src / "riplab":
        raise SystemExit(f"error: imported riplab from {riplab.__file__}, not {src}")
    return riplab, import_s


def machine_facts(workers, np):
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(idx / "level"), read(idx / "type")
        if level in ("2", "3"):
            caches[f"L{level}"] = read(idx / "size")
        elif level == "1":
            caches[f"L1{kind[0].lower() if kind else ''}"] = read(idx / "size")
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workers_passed": workers,
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_lapack": blas,
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "RIP_LAB_THREADS")},
        "git_commit": commit,
    }


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks[:8])


def tail(values):
    """Highest percentile with at least ten samples beyond it: (value, pct, n)."""
    xs = sorted(values)
    n = len(xs)
    if n < 20:     # below p50 it would not be a tail
        return None, None, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


class HostProbe:
    """A fixed slice of interpreter and numpy work that calls no riplab code.

    The shared host's speed moves by up to 2x over minutes, alike for the
    probe and the ops; an op's wall time divided by the probe's time around
    it stays put while the host's speed moves, and moves with the op's own
    cost."""

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.standard_normal((160, 160))
        self.h = self.a + self.a.T
        self.x = rng.standard_normal(100_000)
        s = rng.standard_normal((2000, 3, 3))
        self.s = s + s.transpose(0, 2, 1)

    def __call__(self):
        t0 = time.perf_counter_ns()
        acc = 0
        for i in range(40_000):
            acc += i * i
        (self.a @ self.a).sum()
        self.np.sort(self.x)
        self.np.linalg.eigvalsh(self.s)
        self.np.linalg.eigvalsh(self.h)
        return time.perf_counter_ns() - t0


class Bench:
    def __init__(self, riplab, workload, seed, workdir, workers, tracer, digests, probe):
        self.riplab = riplab
        self.tracer = tracer
        self.probe = probe
        self.results_bytes = riplab.fileio.results_bytes
        self.w = workload(seed, workdir, workers, self.cli, riplab)
        self.digests = digests  # op key -> digest of results (+ output files), across runs
        self.ran = set()        # op keys this run executed
        self.verified = set()  # digests whose check passed
        self.records = []      # timed ops
        self.failures = []
        self.attempted = 0

    def cli(self, argv):
        """Run one untimed, unchecked CLI command (input generation)."""
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(out):
            rc = self.riplab.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"rip-lab {' '.join(argv)} exited {rc}: {out.getvalue()[-500:]}")

    def execute(self, op, key, op_id=None):
        self.attempted += 1
        traced = self.tracer.op(op_id) if self.tracer and op_id is not None else nullcontext()
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(out), traced:
            t0 = time.perf_counter_ns()
            try:
                rc = self.riplab.cli.main(op.argv)
            except SystemExit as exc:
                rc = exc.code
            wall_ns = time.perf_counter_ns() - t0
        problems, doc = [], None
        if rc != 0:
            problems.append(f"exit code {rc}: {out.getvalue()[-500:]}")
        else:
            try:
                doc = json.loads(op.report.read_bytes())
                h = hashlib.sha256(self.results_bytes(doc))
                for path in op.outputs:
                    h.update(path.read_bytes())
                digest = h.hexdigest()
                self.ran.add(key)
                if self.digests.setdefault(key, digest) != digest:
                    problems.append("results differ from an earlier run of the same op")
                elif digest not in self.verified:
                    problems += op.check(doc)
                    if not problems:
                        self.verified.add(digest)
            except Exception as exc:  # a malformed report is a failed op, not a crashed run
                problems.append(f"check raised {type(exc).__name__}: {exc}")
        if problems:
            self.failures.append({"op": key, "argv": op.argv, "problems": problems})
        return wall_ns, doc

    def setup_round(self):
        """Write round 0's inputs and run the ops of each family's first
        entry, untimed."""
        t0 = time.perf_counter()
        self.w.prepare(0)
        first = {}
        for i, op in enumerate(self.w.ops(0)):
            if first.setdefault(op.family, op.entry) == op.entry:
                self.execute(op, f"0:{i}:{op.entry}")
        return time.perf_counter() - t0

    def timed(self, seconds):
        t0 = time.perf_counter()
        rnd = 0
        while rnd == 0 or time.perf_counter() - t0 < seconds:
            self.w.prepare(rnd)
            for i, op in enumerate(self.w.ops(rnd)):
                op_id = len(self.records)
                probe_ns = self.probe()
                wall_ns, doc = self.execute(op, f"{rnd}:{i}:{op.entry}", op_id)
                rec = {"id": op_id, "round": rnd, "entry": op.entry, "family": op.family,
                       "wall_ns": wall_ns, "probe_ns": probe_ns, "subsets": 0, "trials": 0}
                if doc is not None and op.family in ("exact", "lazy", "stop"):
                    rep = doc["results"].get("report") or doc["results"]["probe_report"]
                    rec["subsets"] = rep["subsets_examined"]
                if doc is not None and op.family == "experiment":
                    rec["trials"] = doc["params"]["trials"]
                self.records.append(rec)
            rnd += 1
        # the host's speed around each op: the probes just before and after it
        probes = [r["probe_ns"] for r in self.records] + [self.probe()]
        for rec, before, after in zip(self.records, probes, probes[1:]):
            rec["ref_ns"] = (before + after) / 2
        return rnd


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(records, setup_s, rss_mb, attempted, failed):
    wall = [r["wall_ns"] / 1e9 for r in records]
    # an entry's sample is its wall time in one round: the two mirrored
    # threshold scans of a shape count as one op, whose work does not vary
    # with the planted rank
    per_round, per_round_rel, by_family = {}, {}, {}
    for r, s in zip(records, wall):
        key = (r["entry"], r["round"])
        per_round[key] = per_round.get(key, 0.0) + s
        per_round_rel[key] = per_round_rel.get(key, 0.0) + r["wall_ns"] / r["ref_ns"]
        by_family.setdefault(r["family"], []).append(s)
    by_entry, by_entry_rel = {}, {}
    for key, s in per_round.items():
        by_entry.setdefault(key[0], []).append(s)
        by_entry_rel.setdefault(key[0], []).append(per_round_rel[key])
    m = {
        "setup_s": setup_s,
        "ops_per_s": len(records) / sum(wall),
        "op_p50_s": geomean(statistics.median(v) for v in by_entry.values()),
        "op_p50_probes": geomean(statistics.median(v) for v in by_entry_rel.values()),
        "probe_p50_ms": statistics.median(r["probe_ns"] for r in records) / 1e6,
        "peak_rss_mb": rss_mb,
        "ops_failed_frac": failed / attempted,
    }
    for fam, v in sorted(by_family.items()):
        m[f"{fam}_p50_s"] = statistics.median(v)
        m[f"{fam}_tail_s"], m[f"{fam}_tail_pct"], m[f"{fam}_n"] = tail(v)

    def rate(key, fams):
        busy = sum(s for r, s in zip(records, wall) if r["family"] in fams)
        if busy:
            m[f"{key}_per_s"] = sum(r[key] for r in records if r["family"] in fams) / busy

    rate("subsets", ("exact", "lazy", "stop"))
    rate("trials", ("experiment",))
    m["entry_p50_s"] = {e: statistics.median(v) for e, v in sorted(by_entry.items())}
    return m


def peak_rss_mb():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def main(argv=None):
    args = parse_args(argv)
    riplab, import_s = import_program()
    # imported only now, so that import_s covers numpy's import
    import numpy as np

    import layers
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {', '.join(why)}")
    workers = len(os.sched_getaffinity(0))
    state = ROOT / ".perfbench"
    (state / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=state / "tmp"))
    tracer = layers.make_tracer(riplab) if args.trace else None
    tag = f"{args.workload}-s{args.seed}"
    # determinism across runs of this seed in this checkout, traced or not
    digest_file = state / "digests" / f"{tag}.json"
    earlier = json.loads(digest_file.read_text()) if digest_file.exists() else {}
    try:
        bench = Bench(riplab, workloads.WORKLOADS[args.workload], args.seed, workdir, workers,
                      tracer, dict(earlier), HostProbe(np))
        setup_reps = [bench.setup_round() for _ in range(SETUP_REPS)]
        setup_s = import_s + statistics.median(setup_reps)
        ticks0 = cpu_ticks()
        rounds = bench.timed(args.seconds)
        ticks1 = cpu_ticks()
    finally:
        if tracer:
            tracer.unpatch()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(bench.failures)
    metrics = end_to_end(bench.records, setup_s, peak_rss_mb(), bench.attempted, failed)
    report = {
        "workload": args.workload, "why": why[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "rounds": rounds,
        "ops_timed": len(bench.records), "attempted": bench.attempted, "failed": failed,
        "failures": bench.failures[:20],
        "setup": {"import_s": import_s, "rounds_s": setup_reps},
        "end_to_end": metrics,
        "determinism": {"ops_digested": len(bench.ran),
                        "compared_with_earlier_runs": len(earlier.keys() & bench.ran),
                        "run_digest": hashlib.sha256(json.dumps(
                            {k: bench.digests[k] for k in sorted(bench.ran)}).encode()).hexdigest()},
        "machine": machine_facts(workers, np),
    }
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # CPU time the hypervisor gave to other guests while ops were timed
        report["machine"]["steal_share_timed"] = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    results_dir = state / "results"
    if tracer:
        untraced = results_dir / f"{tag}-trace0.json"
        if not untraced.exists():
            untraced = max(results_dir.glob(f"{args.workload}-s*-trace0.json"),
                           key=lambda p: p.stat().st_mtime, default=None)
        base = json.loads(untraced.read_text())["end_to_end"] if untraced else None
        report["layers"] = layers.per_layer(tracer.spans, bench.records, rounds)
        report["tracing"] = layers.overhead(tracer.spans, bench.records, metrics, base,
                                            untraced.name if untraced else None)
        (state / "spans").mkdir(exist_ok=True)
        with open(state / "spans" / f"{tag}.jsonl", "w") as fh:
            for rec in tracer.spans:
                fh.write(json.dumps(rec) + "\n")
    digest_file.parent.mkdir(exist_ok=True)
    digest_file.write_text(json.dumps(bench.digests, sort_keys=True))
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{tag}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    print(json.dumps(report, indent=1))
    if args.trace:
        lay = report["layers"]
        values, units = {**lay["counts"], **lay["timings"]}, lay["units"]
    else:
        values, units = metrics, {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
                                  "op_p50_probes": "probes", "peak_rss_mb": "MB"}
    listed = spec["per_layer" if args.trace else "end_to_end"]
    for m in listed:
        if units[m["name"]] != m["unit"]:
            raise SystemExit(f"error: {m['name']} is measured in {units[m['name']]}, "
                             f"BENCHMARK.json says {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(128 + signal.SIGTERM)
