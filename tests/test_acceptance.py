"""End-to-end acceptance gate.

Each test covers one numbered claim about the finished tool, prints a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``
to see them), and enforces the stated tolerance and runtime budget.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from riplab.certify import coherence, exact_rip, lazy_certify, lift_order
from riplab.cli import main
from riplab.fileio import (
    read_matrix_file,
    read_report,
    results_bytes,
    write_matrix_file,
)
from riplab.linalg import cholesky_psd, sym_eigenvalues
from riplab.randgen import (
    Seed,
    gen_bernoulli_sensing,
    gen_gnp_half,
    gen_model_a,
    gen_model_b,
    plant_clique,
)
from riplab.reduction import (
    NO_CLIQUE,
    YES,
    cholesky_reduce,
    clique_witness,
    spectral_clique_refuter,
    verify_violation,
)

from oracles import hadamard, svd_rip_oracle

GOLDEN = Path(__file__).parent / "golden"


def report_line(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_exact_rip_matches_svd_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for s in range(50):
        phi = gen_bernoulli_sensing(6, 12, Seed(s))
        rep, _ = exact_rip(phi, 3)
        want, _ = svd_rip_oracle(phi, 3)
        worst = max(worst, abs(rep.value - want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report_line(1, ok,
                f"50 seeded 6x12 at order 3 vs per-subset SVD oracle: "
                f"max |diff| = {worst:.3e} (<= 1e-9), {elapsed:.2f}s (< 10s)")


def test_criterion_02_order_two_equals_coherence():
    t0 = time.perf_counter()
    worst = 0.0
    for s in range(100):
        phi = gen_bernoulli_sensing(6, 10, Seed(s))
        rep, _ = exact_rip(phi, 2)
        worst = max(worst, abs(rep.value - coherence(phi)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    report_line(2, ok,
                f"100 seeded 6x10: max |order-2 parameter - coherence| = "
                f"{worst:.3e} (<= 1e-10), {elapsed:.2f}s (< 5s)")


def test_criterion_03_order_lifting_bound():
    t0 = time.perf_counter()
    violations = 0
    worst_margin = -np.inf
    for s in range(100):
        phi = gen_bernoulli_sensing(8, 16, Seed(s))
        delta = {k: exact_rip(phi, k)[0].value for k in (2, 3, 4)}
        for m in (2, 3, 4):
            for k in range(m, 5):
                margin = delta[k] - lift_order(delta[m], m, k)
                worst_margin = max(worst_margin, margin)
                if margin > 1e-12:
                    violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    report_line(3, ok,
                f"100 seeded 8x16, all 2 <= m <= k <= 4: {violations} lifts "
                f"below the true parameter (worst slack {worst_margin:.3e} <= "
                f"1e-12), {elapsed:.2f}s (< 60s)")


def test_criterion_04_block_diagonal_law():
    t0 = time.perf_counter()
    from riplab.reduction import block_compose

    worst = 0.0
    for s in range(50):
        a = gen_bernoulli_sensing(4, 6, Seed(s, 1))
        b = gen_bernoulli_sensing(4, 6, Seed(s, 2))
        c = block_compose(a, b)
        for k in (2, 3):
            da = exact_rip(a, k)[0].value
            db = exact_rip(b, k)[0].value
            dc = exact_rip(c, k)[0].value
            worst = max(worst, abs(dc - max(da, db)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    report_line(4, ok,
                f"50 seeded 4x6 block pairs, k = 2, 3: max |composition - "
                f"max(blocks)| = {worst:.3e} (<= 1e-10), {elapsed:.2f}s (< 30s)")


def test_criterion_05_clique_witness_identity():
    t0 = time.perf_counter()
    n, t, c_par, delta = 200, 14, 0.3, 0.2
    expected = 1.0 + c_par * (t - 1) / math.sqrt(n)
    nonzero = 0
    worst = 0.0
    flagged = 0
    for s in range(20):
        sd = Seed(1000 + s)
        inst = plant_clique(gen_gnp_half(n, sd), t, sd)
        cm = cholesky_reduce(inst.graph)
        w = clique_witness(inst.graph, inst.planted)
        if cm.any():
            nonzero += 1
            img = cm @ w.vector
            worst = max(worst, abs(float(img @ img) - expected))
        if verify_violation(cm, w, delta):
            flagged += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and flagged == 20 and elapsed < 60.0
    report_line(5, ok,
                f"20 planted 14-cliques at n=200: ||Cx||^2 within {worst:.3e} "
                f"of 1+0.3*13/sqrt(200) on {nonzero}/20 nonzero reductions "
                f"(<= 1e-8), {flagged}/20 flagged at delta=0.2, "
                f"{elapsed:.2f}s (< 60s)")


def test_criterion_06_null_arm_concentration():
    t0 = time.perf_counter()
    n = 400
    psd = 0
    below = 0
    for s in range(20):
        a = gen_model_a(n, Seed(s))
        if sym_eigenvalues(a)[0] < 3.0 * math.sqrt(n):
            below += 1
        b = gen_model_b(n, 0.3, Seed(s))
        if cholesky_psd(b) is not None:
            psd += 1
    elapsed = time.perf_counter() - t0
    ok = psd >= 18 and below >= 18 and elapsed < 120.0
    report_line(6, ok,
                f"n=400, 20 seeds: I + 0.3*A/sqrt(n) PSD in {psd}/20 (>= 18), "
                f"lambda_1(A) < 60 in {below}/20 (>= 18), {elapsed:.2f}s (< 120s)")


def test_criterion_07_refuter_two_arms():
    t0 = time.perf_counter()
    n, k = 200, 35
    null_clean = 0
    for s in range(100):
        if spectral_clique_refuter(gen_gnp_half(n, Seed(s)), k) == NO_CLIQUE:
            null_clean += 1
    planted_hit = 0
    for s in range(100):
        sd = Seed(s, 1)
        inst = plant_clique(gen_gnp_half(n, sd), k, sd)
        if spectral_clique_refuter(inst.graph, k) == YES:
            planted_hit += 1
    elapsed = time.perf_counter() - t0
    ok = null_clean >= 95 and planted_hit == 100 and elapsed < 120.0
    report_line(7, ok,
                f"order-35 refuter at n=200: no-clique on {null_clean}/100 null "
                f"graphs (>= 95), yes on {planted_hit}/100 planted (must be "
                f"100/100), {elapsed:.2f}s (< 120s)")


def test_criterion_08_lazy_consistency(tmp_path, capsys):
    t0 = time.perf_counter()
    delta = 0.5
    # 64x256: the floor formula is checked against the coherence reported by
    # the command-line tool itself, on the first 20 seeds whose coherence is
    # within range (0 < mu <= delta); out-of-range seeds must certify nothing.
    kept = 0
    formula_ok = True
    rejected_ok = True
    s = 0
    while kept < 20:
        phi = gen_bernoulli_sensing(64, 256, Seed(s))
        cert, _ = lazy_certify(phi, 2, delta)
        p = tmp_path / f"m{s}.txt"
        write_matrix_file(p, phi)
        rc = main(["coherence", "--matrix", str(p)])
        mu = float(capsys.readouterr().out.strip().split("=")[1])
        assert rc == 0
        if 0.0 < mu <= delta:
            kept += 1
            want = min(64, math.floor(delta / mu) + 1)
            if cert.max_certified_order != want:
                formula_ok = False
        else:
            if cert.max_certified_order != 0:
                rejected_ok = False
        s += 1
    scanned = s
    # small instances: whatever gets certified must hold exhaustively
    checked = 0
    sound = True
    small = [gen_bernoulli_sensing(16, 24, Seed(t)) for t in range(20)]
    small.append(np.hstack([np.eye(16), hadamard(16)[:, :8] / 4.0]))
    for phi in small:
        cert, _ = lazy_certify(phi, 2, delta)
        if cert.max_certified_order >= 2:
            checked += 1
            true_k = exact_rip(phi, cert.max_certified_order)[0].value
            if true_k > delta + 1e-9:
                sound = False
    elapsed = time.perf_counter() - t0
    ok = formula_ok and rejected_ok and checked >= 1 and sound and elapsed < 60.0
    report_line(8, ok,
                f"64x256 lazy at m=2, delta=0.5: floor(delta/mu)+1 formula held "
                f"on 20/{scanned} in-range seeds, every out-of-range seed "
                f"certified 0; exhaustive check of certified orders sound on "
                f"{checked} small instance(s), {elapsed:.2f}s (< 60s)")


def test_criterion_09_determinism(tmp_path):
    t0 = time.perf_counter()
    # library + file bytes against committed goldens
    m_bytes = (GOLDEN / "matrix_6x12.txt").read_bytes()
    p = tmp_path / "m.txt"
    write_matrix_file(p, gen_bernoulli_sensing(6, 12, Seed(9)))
    matrix_same = p.read_bytes() == m_bytes
    g_bytes = (GOLDEN / "gnp_16_seed3.txt").read_bytes()
    from riplab.fileio import write_graph_file

    q = tmp_path / "g.txt"
    write_graph_file(q, gen_gnp_half(16, Seed(3)))
    graph_same = q.read_bytes() == g_bytes

    # in-process experiment re-run vs committed report results
    golden_doc = read_report(GOLDEN / "experiment_results.json")
    out1 = tmp_path / "e1.json"
    rc = main(["experiment", "--preset", "desk-200", "--trials", "3",
               "--seed", "7", "--out", str(out1)])
    assert rc == 0
    exp_same = results_bytes(read_report(out1)) == results_bytes(golden_doc)

    # fresh-interpreter re-run must agree byte for byte as well
    out2 = tmp_path / "e2.json"
    r = subprocess.run(
        [sys.executable, "-m", "riplab.cli", "experiment", "--preset",
         "desk-200", "--trials", "3", "--seed", "7", "--out", str(out2)],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    sub_same = results_bytes(read_report(out2)) == results_bytes(golden_doc)

    # exact/lazy reports re-run twice in-process
    ra, rb = tmp_path / "a.json", tmp_path / "b.json"
    main(["exact", "--matrix", str(p), "--order", "3", "--out", str(ra)])
    main(["exact", "--matrix", str(p), "--order", "3", "--out", str(rb)])
    exact_same = results_bytes(read_report(ra)) == results_bytes(read_report(rb))
    main(["lazy", "--matrix", str(p), "--probe-order", "2", "--delta", "0.9",
          "--out", str(ra)])
    main(["lazy", "--matrix", str(p), "--probe-order", "2", "--delta", "0.9",
          "--out", str(rb)])
    lazy_same = results_bytes(read_report(ra)) == results_bytes(read_report(rb))

    elapsed = time.perf_counter() - t0
    ok = matrix_same and graph_same and exp_same and sub_same and exact_same and lazy_same
    report_line(9, ok,
                f"seeded re-runs byte-identical: matrix file {matrix_same}, "
                f"graph file {graph_same}, experiment results vs golden "
                f"{exp_same}, fresh-interpreter rerun {sub_same}, exact/lazy "
                f"report results {exact_same}/{lazy_same}, {elapsed:.2f}s")


@pytest.mark.parametrize("name", ["exact_results.json", "lazy_results.json",
                                  "experiment_exact_results.json"])
def test_criterion_09_report_goldens(name, tmp_path, monkeypatch):
    # each golden is a CLI report written from tests/; replay its command there
    golden = read_report(GOLDEN / name)
    out = tmp_path / "r.json"
    monkeypatch.chdir(GOLDEN.parent)
    assert main(golden["command"][:-1] + [str(out)]) == 0
    doc = read_report(out)
    same = {key: doc[key] == golden[key] for key in ("seed", "params")}
    same["results"] = results_bytes(doc) == results_bytes(golden)
    report_line(9, all(same.values()), f"{name} replayed, sections identical: {same}")


def test_criterion_10_lazy_vs_naive_count(tmp_path):
    t0 = time.perf_counter()
    # a 32x64 frame whose coherence is low enough to certify order >= 5
    frame = np.hstack([np.eye(32), hadamard(32) / math.sqrt(32)])
    p = tmp_path / "frame.txt"
    write_matrix_file(p, frame)
    out = tmp_path / "lazy.json"
    rc = main(["lazy", "--matrix", str(p), "--probe-order", "2",
               "--delta", "0.9", "--out", str(out)])
    assert rc == 0
    res = read_report(out)["results"]
    k_max = res["certificate"]["max_certified_order"]
    examined = res["probe_report"]["subsets_examined"]
    naive = res["naive_plan_subsets"]
    ratio = res["lazy_vs_naive_ratio"]
    frame_ok = (
        examined == math.comb(64, 2) == 2016
        and k_max >= 5
        and naive == math.comb(64, k_max)
        and ratio == naive / examined
        and ratio > 1e3
    )

    # a plain Bernoulli instance reports the same bookkeeping shape
    phi = gen_bernoulli_sensing(32, 64, Seed(7))
    q = tmp_path / "b.txt"
    write_matrix_file(q, phi)
    out2 = tmp_path / "lazy2.json"
    rc = main(["lazy", "--matrix", str(q), "--probe-order", "2",
               "--delta", "0.5", "--out", str(out2)])
    assert rc == 0
    res2 = read_report(out2)["results"]
    bern_ok = res2["probe_report"]["subsets_examined"] == 2016
    if res2["certificate"]["max_certified_order"] >= 5:
        bern_ok = bern_ok and res2["lazy_vs_naive_ratio"] > 1e3

    elapsed = time.perf_counter() - t0
    ok = frame_ok and bern_ok and elapsed < 10.0
    report_line(10, ok,
                f"32x64 lazy probe examined {examined} = C(64,2) subsets, "
                f"certified order {k_max} (>= 5), naive plan {naive} subsets, "
                f"ratio {ratio:.1f} (> 1e3), {elapsed:.2f}s (< 10s)")
