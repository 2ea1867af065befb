"""Command-line front end.

Every subcommand prints a small stable ``key=value`` line (or a bare
decision word) on stdout and returns ``(seed, params, results,
diagnostics)``; `main` times it and writes the JSON report (tool version,
command, seed, parameters, results, wall time and, when a command returns
them or warns, diagnostics) when one is asked for.  Library warnings reach
stderr as ``warning: <message>`` lines and the report as
``diagnostics["warnings"]``.  Exit codes: 0 success,
1 internal error, 2 bad arguments or unreadable/invalid input files,
3 enumeration budget exceeded, 4 matrix does not have unit columns.

All randomness enters through --seed; there is no fallback to system
entropy, so every published number is reproducible from its report.
"""

import argparse
import math
import sys
import time
import traceback
import warnings
from dataclasses import asdict

from .certify import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    UnitColumnError,
    coherence,
    exact_rip,
    lazy_certify,
)
from .fileio import (
    read_graph_file,
    read_matrix_file,
    witness_dict,
    write_graph_file,
    write_matrix_file,
    write_report,
)
from .linalg import PSD_TOL
from .randgen import (
    Seed,
    gen_bernoulli_sensing,
    gen_gnp_half,
    gen_model_a,
    gen_model_b,
    plant_clique,
)
from .reduction import (
    PRESETS,
    ReductionParams,
    asym_preset,
    cholesky_reduce,
    run_distinguishing_experiment,
    spectral_clique_refuter,
)


def _add_seed_flags(p):
    p.add_argument("--seed", type=int, required=True,
                   help="seed value (required; no entropy fallback)")
    p.add_argument("--stream", type=int, default=0, help="seed substream (default 0)")


def build_parser():
    p = argparse.ArgumentParser(
        prog="rip-lab",
        description="Restricted isometry certification, seeded random models, "
        "and clique-based hardness experiments.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    px = sub.add_parser("exact", help="exact RIP parameter by subset enumeration")
    px.add_argument("--matrix", required=True)
    px.add_argument("--order", type=int, required=True)
    px.add_argument("--threshold", type=float, default=None,
                    help="stop early once a subset deviation exceeds this")
    px.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    px.add_argument("--workers", type=int, default=None,
                    help="accepted and ignored: the scan is serial")
    px.add_argument("--out", dest="report", default=None, help="write a JSON report here")
    px.set_defaults(func=cmd_exact)

    pc = sub.add_parser("coherence", help="largest off-diagonal Gram entry")
    pc.add_argument("--matrix", required=True)
    pc.add_argument("--out", dest="report", default=None)
    pc.set_defaults(func=cmd_coherence)

    pl = sub.add_parser("lazy", help="probe a small order, lift to the largest certifiable one")
    pl.add_argument("--matrix", required=True)
    pl.add_argument("--probe-order", type=int, required=True)
    pl.add_argument("--delta", type=float, required=True)
    pl.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    pl.add_argument("--workers", type=int, default=None,
                    help="accepted and ignored: the scan is serial")
    pl.add_argument("--out", dest="report", default=None)
    pl.set_defaults(func=cmd_lazy)

    pg = sub.add_parser("generate", help="seeded random matrices and graphs")
    gsub = pg.add_subparsers(dest="model", required=True)

    gb = gsub.add_parser("bernoulli", help="n x N sensing matrix, entries +-1/sqrt(n)")
    gb.add_argument("--dims", type=int, nargs=2, required=True, metavar=("ROWS", "COLS"))
    gm = gsub.add_parser("model-a", help="symmetric sign matrix, zero diagonal")
    gm.add_argument("--n", type=int, required=True)
    gmb = gsub.add_parser("model-b", help="I + c*A/sqrt(n)")
    gmb.add_argument("--n", type=int, required=True)
    gmb.add_argument("--c", type=float, default=ReductionParams.c)
    gg = gsub.add_parser("gnp", help="G(n, 1/2) graph")
    gg.add_argument("--n", type=int, required=True)
    gp = gsub.add_parser("planted", help="G(n, 1/2) with a planted clique")
    gp.add_argument("--n", type=int, required=True)
    gp.add_argument("--t", type=int, required=True, help="clique size")
    for gpp in (gb, gm, gmb, gg, gp):
        _add_seed_flags(gpp)
        gpp.add_argument("--out", required=True, help="output matrix/graph file")
        gpp.add_argument("--report", default=None, help="write a JSON report here")
        gpp.set_defaults(func=cmd_generate)

    pr = sub.add_parser("reduce", help="graph -> factor of I + c*A/sqrt(n), or zero")
    pr.add_argument("--graph", required=True)
    pr.add_argument("--c", type=float, default=ReductionParams.c)
    pr.add_argument("--out", required=True, help="output matrix file")
    pr.add_argument("--report", default=None)
    pr.set_defaults(func=cmd_reduce)

    pf = sub.add_parser("refute", help="spectral clique refuter (exact soundness)")
    pf.add_argument("--graph", required=True)
    pf.add_argument("--k", type=int, required=True)
    pf.add_argument("--report", default=None)
    pf.set_defaults(func=cmd_refute)

    pe = sub.add_parser("experiment", help="two-arm planted-clique distinguishing run")
    pe.add_argument("--preset", choices=sorted(PRESETS) + ["asym"], default=None)
    pe.add_argument("--n", type=int, default=None)
    pe.add_argument("--eps", type=float, default=None,
                    help="exponent for --preset asym")
    pe.add_argument("--clique-size", type=int, default=None)
    pe.add_argument("--order", type=int, default=None)
    pe.add_argument("--delta", type=float, default=None)
    pe.add_argument("--trials", type=int, default=None)
    pe.add_argument("--c", type=float, default=ReductionParams.c)
    pe.add_argument("--rect-cols", type=int, default=None)
    pe.add_argument("--null-stat", choices=["lambda1", "exact"], default="lambda1")
    pe.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    _add_seed_flags(pe)
    pe.add_argument("--out", dest="report", default=None)
    pe.set_defaults(func=cmd_experiment)

    return p


def _require_finite_c(args):
    # the library rejects a non-finite c too; this names the flag
    if not math.isfinite(args.c):
        raise ValueError(f"--c must be finite, got {args.c}")


def cmd_exact(args):
    phi = read_matrix_file(args.matrix)
    diagnostics = {}
    report, witness = exact_rip(phi, args.order, threshold=args.threshold, budget=args.budget,
                                diagnostics=diagnostics)
    print(f"delta={report.value!r}")
    params = {
        "order": args.order,
        "threshold": args.threshold,
        "budget": args.budget,
        "rows": phi.shape[0],
        "cols": phi.shape[1],
    }
    return (None, params, {"report": asdict(report), "witness": witness_dict(witness)},
            diagnostics)


def cmd_coherence(args):
    phi = read_matrix_file(args.matrix)
    mu = coherence(phi)
    print(f"mu={mu!r}")
    return None, {"rows": phi.shape[0], "cols": phi.shape[1]}, {"mu": mu}, None


def cmd_lazy(args):
    phi = read_matrix_file(args.matrix)
    diagnostics = {}
    cert, probe = lazy_certify(phi, args.probe_order, args.delta, budget=args.budget,
                               diagnostics=diagnostics)
    print(f"epsilon={cert.probe_parameter!r} k_max={cert.max_certified_order}")
    cols = phi.shape[1]
    naive = ratio = None
    if cert.max_certified_order >= cert.probe_order:
        naive = math.comb(cols, cert.max_certified_order)
        try:
            ratio = naive / probe.subsets_examined
        except OverflowError:  # the quotient does not fit in a double
            pass
    params = {
        "probe_order": args.probe_order,
        "delta": args.delta,
        "budget": args.budget,
        "rows": phi.shape[0],
        "cols": cols,
    }
    results = {
        "certificate": asdict(cert),
        "probe_report": asdict(probe),
        "naive_plan_subsets": naive,
        "lazy_vs_naive_ratio": ratio,
    }
    return None, params, results, diagnostics


def cmd_generate(args):
    seed = Seed(args.seed, args.stream)
    if args.model in ("bernoulli", "model-a", "model-b"):
        if args.model == "bernoulli":
            rows, cols = args.dims
            m = gen_bernoulli_sensing(rows, cols, seed)
            params = {"model": "bernoulli", "rows": rows, "cols": cols}
        elif args.model == "model-a":
            m = gen_model_a(args.n, seed)
            params = {"model": "model-a", "n": args.n}
        else:
            _require_finite_c(args)
            m = gen_model_b(args.n, args.c, seed)
            params = {"model": "model-b", "n": args.n, "c": args.c}
        write_matrix_file(args.out, m)
        results = {"rows": m.shape[0], "cols": m.shape[1]}
    elif args.model == "gnp":
        g = gen_gnp_half(args.n, seed)
        write_graph_file(args.out, g)
        params = {"model": "gnp", "n": args.n}
        results = {"n": g.n, "edges": g.edge_count()}
    else:  # planted
        inst = plant_clique(gen_gnp_half(args.n, seed), args.t, seed)
        write_graph_file(args.out, inst.graph)
        print("clique: " + " ".join(str(v) for v in inst.planted))
        params = {"model": "planted", "n": args.n, "t": args.t}
        results = {
            "n": inst.graph.n,
            "edges": inst.graph.edge_count(),
            "clique": list(inst.planted),
        }
    print(f"wrote={args.out}")
    return seed, params, results, None


def cmd_reduce(args):
    _require_finite_c(args)
    g = read_graph_file(args.graph)
    c_matrix = cholesky_reduce(g, ReductionParams(c=args.c))
    # R^T R has a unit diagonal, so R[0, 0] is 1 up to rounding for every
    # factor, and 0 only in the zero matrix
    not_psd = not c_matrix[0, 0]
    write_matrix_file(args.out, c_matrix)
    print("status=not-psd" if not_psd else "status=ok")
    print(f"wrote={args.out}")
    # psd_tol: the fixed tolerance the run used, kept so reports replay unchanged
    params = {"n": g.n, "c": args.c, "psd_tol": PSD_TOL}
    return None, params, {"n": g.n, "not_psd": not_psd}, None


def cmd_refute(args):
    g = read_graph_file(args.graph)
    diagnostics = {}
    decision = spectral_clique_refuter(g, args.k, diagnostics)
    print(decision)
    return None, {"n": g.n, "k": args.k}, {"decision": decision}, diagnostics


def cmd_experiment(args):
    """Run the two-arm experiment on the parameters of ``--preset`` (a named
    desk preset, or ``asym`` from --n and --eps; none at all without it),
    each overridden by its flag when given.  ``trials`` defaults as in
    `run_distinguishing_experiment`."""
    _require_finite_c(args)
    if args.preset == "asym":
        if args.n is None or args.eps is None:
            raise ValueError("--preset asym requires --n and --eps")
        run = asym_preset(args.n, args.eps)
    else:
        run = dict(PRESETS.get(args.preset, {}))
    given = {"n": args.n, "clique_size": args.clique_size, "k": args.order,
             "delta": args.delta, "trials": args.trials}
    run.update({key: v for key, v in given.items() if v is not None})
    required = {"--n": "n", "--clique-size": "clique_size", "--order": "k", "--delta": "delta"}
    missing = [flag for flag, key in required.items() if key not in run]
    if missing:
        raise ValueError(f"missing required experiment parameters: {', '.join(missing)}")

    params = ReductionParams(c=args.c)
    seed = Seed(args.seed, args.stream)
    report = run_distinguishing_experiment(
        **run,
        params=params,
        base_seed=seed,
        rect_cols=args.rect_cols,
        null_statistic=args.null_stat,
        budget=args.budget,
    )
    sep = report.separation
    trials = len(report.trials) // 2
    print(f"tp={sep.true_positives} fp={sep.false_positives} trials={trials}")
    run_params = {
        "preset": args.preset,
        "n": report.n,
        "clique_size": report.clique_size,
        "order": report.k,
        "delta": report.delta,
        "trials": trials,
        "c": params.c,
        "psd_tol": PSD_TOL,  # the fixed tolerance the run used, as in cmd_reduce
        "rect_cols": report.rect_cols,
        "null_statistic": args.null_stat,
        "budget": args.budget,
    }
    return seed, run_params, asdict(report), None


# shared by every main() call: its defaults are immutable and parsing mutates no state
_PARSER = build_parser()


def _run(args):
    """``args.func(args)``, its library warnings printed as ``warning: ...``
    lines on stderr (each message once, before any error) and listed under
    its diagnostics' ``"warnings"`` key."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            seed, params, results, diagnostics = args.func(args)
        finally:
            messages = list(dict.fromkeys(str(w.message) for w in caught))
            for message in messages:
                print(f"warning: {message}", file=sys.stderr)
    if messages:
        diagnostics = {**(diagnostics or {}), "warnings": messages}
    return seed, params, results, diagnostics


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _PARSER.parse_args(argv)
    try:
        t0 = time.perf_counter_ns()
        seed, params, results, diagnostics = _run(args)
        if args.report:
            write_report(
                args.report,
                command=list(argv),
                seed=seed,
                params=params,
                results=results,
                wall_time_ns=time.perf_counter_ns() - t0,
                diagnostics=diagnostics,
            )
        return 0
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UnitColumnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:  # FileFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
