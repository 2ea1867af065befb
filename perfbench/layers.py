"""Where riplab's layers are traced, and the per-layer metrics built from it.

The layers are riplab's six modules.  Each function below is wrapped at the
module attribute its caller resolves, so ``riplab.cli.exact_rip`` is traced
for the CLI's calls and ``riplab.certify.exact_rip`` for ``lazy_certify``'s.
Per-layer values are per round of the workload's op menu, so runs with
different numbers of rounds compare; rates are taken over the spans' time.
"""

import math
import os
import statistics

from spans import Tracer, layer_busy_ns, summarise, wrapper_cost_ns


def _read_bytes(args, kwargs, result):
    return {"bytes_read": os.path.getsize(args[0])}


def _written_bytes(args, kwargs, result):
    return {"bytes_written": os.path.getsize(args[0])}


def _exact_info(args, kwargs, result):
    return {"examined": result[0].subsets_examined,
            "total": math.comb(args[0].shape[1], int(args[1]))}


def _flops(per_n3):
    def info(args, kwargs, result):
        n = args[0].shape[0]
        out = {"flops": per_n3 * n ** 3}
        if result is None:
            out["none"] = 1
        return out
    return info


def _words(count):
    return lambda args, kwargs, result: {"words": count(*args)}


def _zero_reduction(args, kwargs, result):
    return {"zero": int(not result.any())}


def _trials(args, kwargs, result):
    return {"trials": len(result.trials) // 2}


def make_tracer(riplab):
    cli, certify, reduction = riplab.cli, riplab.certify, riplab.reduction
    t = Tracer()
    t.patch(cli, "main", "cli.main")
    for fn in ("read_graph_file", "read_matrix_file"):
        t.patch(cli, fn, f"fileio.{fn}", _read_bytes)
    for fn in ("write_graph_file", "write_matrix_file", "write_report"):
        t.patch(cli, fn, f"fileio.{fn}", _written_bytes)
    for mod in (cli, certify, reduction):
        t.patch(mod, "exact_rip", "certify.exact_rip", _exact_info, cpu=True)
    t.patch(cli, "lazy_certify", "certify.lazy_certify", cpu=True)
    t.patch(certify, "gram", "linalg.gram")
    t.patch(reduction, "cholesky_psd", "linalg.cholesky_psd", _flops(1 / 3))
    t.patch(reduction, "sym_eigenvalues", "linalg.sym_eigenvalues", _flops(4 / 3))
    gen_words = {
        "gen_gnp_half": lambda n, seed: n * (n - 1) // 2,
        "plant_clique": lambda graph, size, seed: size,
        "gen_bernoulli_sensing": lambda n, cols, seed: n * cols,
    }
    for mod in (cli, reduction):
        for fn, count in gen_words.items():
            t.patch(mod, fn, f"randgen.{fn}", _words(count))
        t.patch(mod, "cholesky_reduce", "reduction.cholesky_reduce", _zero_reduction)
    t.patch(reduction, "signed_adjacency", "reduction.signed_adjacency")
    t.patch(cli, "spectral_clique_refuter", "reduction.spectral_clique_refuter")
    t.patch(cli, "run_distinguishing_experiment", "reduction.run_distinguishing_experiment",
            _trials)
    t.patch(reduction, "clique_witness", "reduction.clique_witness")
    t.patch(reduction, "verify_violation", "reduction.verify_violation")
    return t


def per_layer(spans, records, rounds):
    """Per-layer counts and timings (per round) plus rates, with units."""
    summary = summarise(spans)
    layers = layer_busy_ns(spans)
    counts, timings, units = {}, {}, {}

    def count(name, value, unit="count"):
        counts[name] = value / rounds
        units[name] = unit

    def timing(name, ns):
        timings[name] = ns / 1e9 / rounds
        units[name] = "s"

    def rate(name, value, unit):
        timings[name] = value
        units[name] = unit

    def s(name):
        return summary.get(name, {"calls": 0, "busy_ns": 0, "self_ns": 0, "errors": 0})

    def info_sum(prefix, key):
        return sum(r[7].get(key, 0) for r in spans if r[0].startswith(prefix) and r[7])

    for layer in ("cli", "fileio", "certify", "linalg", "randgen", "reduction"):
        timing(f"{layer}.busy_s", layers.get(layer, 0))

    count("cli.main.calls", s("cli.main")["calls"])
    timing("cli.main.busy_s", s("cli.main")["busy_ns"])
    timing("cli.self_s", s("cli.main")["self_ns"])

    exact = s("certify.exact_rip")
    examined = info_sum("certify.exact_rip", "examined")
    count("certify.exact_rip.calls", exact["calls"])
    timing("certify.exact_rip.busy_s", exact["busy_ns"])
    timing("certify.exact_rip.self_s", exact["self_ns"])
    timing("certify.lazy_certify.busy_s", s("certify.lazy_certify")["busy_ns"])
    count("certify.subsets_examined", examined)
    count("certify.errors", sum(v["errors"] for k, v in summary.items() if k.startswith("certify.")))
    exact_s = exact["busy_ns"] / 1e9
    rate("certify.subsets_per_busy_s", examined / exact_s if exact_s else 0.0, "1/s")
    family = {r["id"]: r["family"] for r in records}
    # threshold scans apart from the rest: time per subset above the full
    # scans' is work wasted after the stop
    for prefix, stop in (("certify.", False), ("certify.stop.", True)):
        scans = [r for r in spans if r[0] == "certify.exact_rip" and (family[r[4]] == "stop") == stop]
        busy = sum(r[2] - r[1] for r in scans) / 1e3
        done = sum(r[7]["examined"] for r in scans if r[7])
        rate(f"{prefix}us_per_subset_examined", busy / done if done else 0.0, "us")
    stop_total = sum(r[7]["total"] for r in scans if r[7])
    rate("certify.stop_rank_frac", done / stop_total if stop_total else 0.0, "ratio")
    outer = [r for r in spans if r[5] is not None
             and (r[3] is None or not spans[r[3]][0].startswith("certify."))]
    wall = sum(r[2] - r[1] for r in outer) / 1e9
    rate("certify.cpu_per_wall", sum(r[5] for r in outer) / wall if wall else 0.0, "ratio")

    read_ns = write_ns = 0
    for fn in ("read_graph_file", "read_matrix_file", "write_graph_file",
               "write_matrix_file", "write_report"):
        busy = s(f"fileio.{fn}")["busy_ns"]
        timing(f"fileio.{fn}.busy_s", busy)
        if fn.startswith("read"):
            read_ns += busy
        else:
            write_ns += busy
    read_b, written_b = info_sum("fileio.", "bytes_read"), info_sum("fileio.", "bytes_written")
    count("fileio.bytes_read", read_b, "bytes")
    count("fileio.bytes_written", written_b, "bytes")
    rate("fileio.read_mb_per_s", read_b / 1e6 / (read_ns / 1e9) if read_ns else 0.0, "MB/s")
    rate("fileio.write_mb_per_s", written_b / 1e6 / (write_ns / 1e9) if write_ns else 0.0, "MB/s")

    for fn in ("cholesky_psd", "sym_eigenvalues"):
        count(f"linalg.{fn}.calls", s(f"linalg.{fn}")["calls"])
        timing(f"linalg.{fn}.busy_s", s(f"linalg.{fn}")["busy_ns"])
    count("linalg.cholesky_psd.none_returned", info_sum("linalg.cholesky_psd", "none"))
    count("linalg.gflops_computed", info_sum("linalg.", "flops") / 1e9, "GFLOP")
    timing("linalg.gram.busy_s", s("linalg.gram")["busy_ns"])

    for fn in ("gen_gnp_half", "plant_clique", "gen_bernoulli_sensing"):
        timing(f"randgen.{fn}.busy_s", s(f"randgen.{fn}")["busy_ns"])
    words = info_sum("randgen.", "words")
    count("randgen.words_drawn", words)
    gen_ns = layers.get("randgen", 0)
    rate("randgen.words_per_s", words / (gen_ns / 1e9) if gen_ns else 0.0, "1/s")

    for fn in ("cholesky_reduce", "run_distinguishing_experiment"):
        timing(f"reduction.{fn}.busy_s", s(f"reduction.{fn}")["busy_ns"])
        timing(f"reduction.{fn}.self_s", s(f"reduction.{fn}")["self_ns"])
    for fn in ("signed_adjacency", "clique_witness", "verify_violation"):
        timing(f"reduction.{fn}.busy_s", s(f"reduction.{fn}")["busy_ns"])
    count("reduction.zero_reductions", info_sum("reduction.cholesky_reduce", "zero"))
    count("reduction.trials", info_sum("reduction.run_distinguishing_experiment", "trials"))
    refute = {"refute": 0, "refute_knife": 0}
    for r in spans:
        if r[0] == "reduction.spectral_clique_refuter":
            refute[family[r[4]]] += r[2] - r[1]
    timing("reduction.refute_random.busy_s", refute["refute"])
    timing("reduction.refute_knife.busy_s", refute["refute_knife"])
    return {"counts": counts, "timings": timings, "units": units}


def overhead(spans, records, traced, untraced, untraced_name):
    """Tracing overhead: traced minus untraced end-to-end metrics, and per op
    the share of its wall time that no span accounts for."""
    main_ns = {r[4]: r[2] - r[1] for r in spans if r[0] == "cli.main"}
    per_op = {}
    for r in spans:
        per_op[r[4]] = per_op.get(r[4], 0) + 1
    cost = wrapper_cost_ns()
    unaccounted = [rec["wall_ns"] - main_ns[rec["id"]] for rec in records]
    share = max(u / rec["wall_ns"] for u, rec in zip(unaccounted, records))
    estimate = [per_op[rec["id"]] * cost for rec in records]
    out = {
        "wrapper_cost_ns": cost,
        "spans_per_op_median": statistics.median(per_op.values()),
        "estimated_s_per_op_median": statistics.median(estimate) / 1e9,
        "unaccounted_s_per_op_max": max(unaccounted) / 1e9,
        "unaccounted_s_per_op_median": statistics.median(unaccounted) / 1e9,
        "unaccounted_share_of_op_wall_max": share,
        "untraced_run": untraced_name,
    }
    if untraced:
        out["traced_minus_untraced"] = {
            k: traced[k] - untraced[k] for k in traced
            if isinstance(traced[k], float) and isinstance(untraced.get(k), float)}
    return out
