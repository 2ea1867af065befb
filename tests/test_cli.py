import argparse
import importlib
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import riplab
from riplab.cli import main
from riplab.fileio import (
    FileFormatError,
    read_graph_file,
    read_matrix_file,
    read_report,
    results_bytes,
    write_matrix_file,
)
from riplab.randgen import (
    MAX_GRAPH_VERTICES,
    Seed,
    gen_bernoulli_sensing,
    gen_gnp_half,
    gen_model_a,
    gen_model_b,
)
from riplab.reduction import ReductionParams, asym_preset, cholesky_reduce


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


def make_matrix(tmp_path, capsys):
    p = str(tmp_path / "m.txt")
    rc, out, _ = run_cli(["generate", "bernoulli", "--dims", "6", "12",
                          "--seed", "9", "--out", p], capsys)
    assert rc == 0 and out == f"wrote={p}\n"
    return p


def test_exact_stdout_and_report(tmp_path, capsys):
    m = make_matrix(tmp_path, capsys)
    rep = str(tmp_path / "r.json")
    rc, out, _ = run_cli(["exact", "--matrix", m, "--order", "3", "--out", rep], capsys)
    assert rc == 0
    assert out == "delta=1.1240937744230055\n"
    doc = read_report(rep)
    assert doc["command"][0] == "exact"  # full argv, for reproducibility
    assert doc["params"]["order"] == 3
    assert doc["results"]["report"]["value"] == 1.1240937744230055
    assert doc["results"]["report"]["direction"] == "ExactMax"
    assert "elapsed_ns" not in doc["results"]["report"]
    assert doc["results"]["witness"]["subset"] == [1, 3, 10]


def test_coherence_agrees_with_exact_order_two(tmp_path, capsys):
    m = make_matrix(tmp_path, capsys)
    rc, out_mu, _ = run_cli(["coherence", "--matrix", m], capsys)
    assert rc == 0 and out_mu.startswith("mu=")
    mu = float(out_mu.strip().split("=")[1])
    rc, out_d, _ = run_cli(["exact", "--matrix", m, "--order", "2"], capsys)
    assert rc == 0
    delta2 = float(out_d.strip().split("=")[1])
    assert abs(mu - delta2) <= 1e-10


def test_lazy_stdout_and_report(tmp_path, capsys):
    m = make_matrix(tmp_path, capsys)
    rep = str(tmp_path / "r.json")
    rc, out, _ = run_cli(["lazy", "--matrix", m, "--probe-order", "2",
                          "--delta", "0.9", "--out", rep], capsys)
    assert rc == 0
    assert out == "epsilon=0.666666666666667 k_max=2\n"
    doc = read_report(rep)
    res = doc["results"]
    assert res["certificate"]["max_certified_order"] == 2
    assert res["naive_plan_subsets"] == 66  # C(12, 2)
    assert res["lazy_vs_naive_ratio"] == 1.0


def test_generate_matches_library(tmp_path, capsys):
    pa = str(tmp_path / "a.txt")
    run_cli(["generate", "model-a", "--n", "5", "--seed", "7", "--out", pa], capsys)
    assert np.array_equal(read_matrix_file(pa), gen_model_a(5, Seed(7)))
    pb = str(tmp_path / "b.txt")
    run_cli(["generate", "model-b", "--n", "4", "--seed", "3", "--out", pb], capsys)
    assert np.array_equal(read_matrix_file(pb), gen_model_b(4, 0.3, Seed(3)))
    ps = str(tmp_path / "s.txt")
    run_cli(["generate", "bernoulli", "--dims", "4", "8", "--seed", "42",
             "--stream", "5", "--out", ps], capsys)
    assert np.array_equal(read_matrix_file(ps), gen_bernoulli_sensing(4, 8, Seed(42, 5)))


def test_generate_planted_prints_clique(tmp_path, capsys):
    p = str(tmp_path / "g.txt")
    rc, out, _ = run_cli(["generate", "planted", "--n", "10", "--t", "4",
                          "--seed", "4", "--out", p], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "clique: 0 5 8 9"
    assert lines[1] == f"wrote={p}"


def test_reduce_and_refute(tmp_path, capsys):
    g = str(tmp_path / "g.txt")
    run_cli(["generate", "planted", "--n", "10", "--t", "4", "--seed", "4",
             "--out", g], capsys)
    c = str(tmp_path / "c.txt")
    rep = str(tmp_path / "r.json")
    rc, out, _ = run_cli(["reduce", "--graph", g, "--out", c, "--report", rep], capsys)
    assert rc == 0
    assert out == f"status=ok\nwrote={c}\n"
    assert read_report(rep)["results"]["not_psd"] is False
    mat = read_matrix_file(c)
    assert mat.shape == (10, 10)
    rc, out, _ = run_cli(["refute", "--graph", g, "--k", "4"], capsys)
    assert rc == 0 and out == "yes\n"


def test_refute_order_above_n_needs_no_matrix(tmp_path, capsys):
    # lambda_1 <= n - 1 < k - 1: no-clique before (k-1)I could overflow int64
    from riplab.fileio import write_graph_file
    from riplab.randgen import Graph

    g = str(tmp_path / "k60.txt")
    write_graph_file(g, Graph(60, ~np.eye(60, dtype=bool)))
    rep = str(tmp_path / "r.json")
    huge = str(2**63 + 1)
    rc, out, _ = run_cli(["refute", "--graph", g, "--k", huge, "--report", rep], capsys)
    assert rc == 0 and out == "no-clique\n"
    doc = read_report(rep)
    assert doc["params"]["k"] == 2**63 + 1
    assert doc["diagnostics"] == {"proof": "k>n"}


def test_reduce_not_psd(tmp_path, capsys):
    from riplab.fileio import write_graph_file
    from riplab.randgen import Graph

    g = str(tmp_path / "e.txt")
    write_graph_file(g, Graph(100))
    c = str(tmp_path / "c.txt")
    rc, out, _ = run_cli(["reduce", "--graph", g, "--out", c], capsys)
    assert rc == 0
    assert out.splitlines()[0] == "status=not-psd"
    assert not read_matrix_file(c).any()


def test_experiment_preset(tmp_path, capsys):
    rep = str(tmp_path / "e.json")
    rc, out, _ = run_cli(["experiment", "--preset", "desk-200-k35", "--trials", "2",
                          "--seed", "7", "--out", rep], capsys)
    assert rc == 0
    assert out == "tp=2 fp=0 trials=2\n"
    doc = read_report(rep)
    assert doc["params"]["order"] == 35
    assert doc["results"]["separation"] == {"true_positives": 2, "false_positives": 0}
    assert len(doc["results"]["trials"]) == 4


def test_exit_code_two_on_bad_input(tmp_path, capsys):
    m = make_matrix(tmp_path, capsys)
    rc, _, err = run_cli(["exact", "--matrix", m, "--order", "99"], capsys)
    assert rc == 2
    assert "error: order must satisfy 1 <= k <= 12, got 99" in err
    rc, _, err = run_cli(["exact", "--matrix", m, "--order", "2", "--threshold", "nan"], capsys)
    assert rc == 2 and "threshold must be finite" in err
    rc, _, err = run_cli(["exact", "--matrix", str(tmp_path / "nope.txt"),
                          "--order", "2"], capsys)
    assert rc == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("not a matrix\n")
    rc, _, err = run_cli(["exact", "--matrix", str(bad), "--order", "2"], capsys)
    assert rc == 2 and "expected header" in err


def test_unexpected_exception_exits_one_with_a_traceback(tmp_path, capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(importlib.import_module("riplab.cli"), "_run", boom)
    rc, out, err = run_cli(["coherence", "--matrix", str(tmp_path / "m.txt")], capsys)
    assert (rc, out) == (1, "")
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("RuntimeError: boom\n")


@pytest.mark.parametrize("where", ["header", "data line", "tail"])
def test_non_utf8_input_exits_two_and_writes_nothing(where, tmp_path, capsys):
    """A 0xFF byte, which no UTF-8 text holds, in a matrix or graph file's
    header, a data line or the blank tail: one error line naming the file,
    the line (newlines counted as text mode counts them) and the byte, exit
    2, no report."""
    m, g, rep = tmp_path / "m.txt", tmp_path / "g.txt", tmp_path / "r.json"
    line = {"header": 1, "data line": 3, "tail": 4}[where]
    for newline in (b"\n", b"\r\n", b"\r"):
        for path, lines in ((m, [b"2 2", b"0.5 -0.5", b"-0.5 0.5", b""]), (g, [b"4 2", b"0 1", b"2 3", b""])):
            lines[line - 1] += b"\xff"
            path.write_bytes(newline.join(lines) + newline)
        for path, argv in ((m, ["exact", "--matrix", str(m), "--order", "2", "--out", str(rep)]),
                           (g, ["refute", "--graph", str(g), "--k", "3", "--report", str(rep)])):
            rc, out, err = run_cli(argv, capsys)
            assert (rc, out) == (2, ""), argv
            assert err.startswith(f"error: {path}:{line}: ") and err.count("\n") == 1, err
            assert "0xff" in err, err
    assert not rep.exists()


def test_oversized_headers_exit_two(tmp_path, capsys):
    # a graph header alone would ask for a 100000 x 100000 adjacency
    g = tmp_path / "g.txt"
    g.write_text("100000 0\n")
    for args in (["refute", "--graph", str(g), "--k", "3"],
                 ["reduce", "--graph", str(g), "--out", str(tmp_path / "f.txt")]):
        rc, out, err = run_cli(args, capsys)
        assert rc == 2 and out == ""
        assert f"{g}:1: n=100000 exceeds the cap of 16384 vertices" in err
    assert not (tmp_path / "f.txt").exists()
    # an edge count of 10^9 over two edge lines: the size guard comes before
    # anything is allocated from the header, and the file's newline count,
    # taken before the line loop decodes a line, names the file's end
    g.write_text("16 1000000000\n0 1\n0 2\n")
    rc, out, err = run_cli(["refute", "--graph", str(g), "--k", "3"], capsys)
    assert (rc, out) == (2, "")
    assert f"{g}:4: expected 1000000000 data rows, file ends early" in err
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError, match="file ends early"):
            read_graph_file(g)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    # a matrix header asking for 10^11 columns over a one-value row
    m = tmp_path / "m.txt"
    m.write_text("1 100000000000\n1.0\n")
    rc, out, err = run_cli(["exact", "--matrix", str(m), "--order", "1"], capsys)
    assert rc == 2 and out == ""
    assert f"{m}:2: expected 100000000000 values, got 1" in err
    # 2 x 10^10 values over two one-value rows: nothing is allocated from the
    # header, and the line loop names the first short row
    m.write_text("2 10000000000\n1.0\n2.0\n")
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError) as exc:
            read_matrix_file(m)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    assert str(exc.value) == f"{m}:2: expected 10000000000 values, got 1"


def test_overflowing_gram_exits_two_and_writes_nothing(tmp_path, capsys):
    m = tmp_path / "big.txt"
    m.write_text("2 3\n1e200 1e200 1.0\n1e200 -1e200 2.0\n")
    rep = tmp_path / "r.json"
    for argv in (["exact", "--matrix", str(m), "--order", "2"],
                 ["coherence", "--matrix", str(m)]):
        rc, out, err = run_cli(argv + ["--out", str(rep)], capsys)
        assert rc == 2 and out == ""
        assert err.startswith("error: Gram matrix")
    assert not rep.exists()


def test_exit_code_three_on_budget(tmp_path, capsys):
    m = make_matrix(tmp_path, capsys)
    rc, _, err = run_cli(["exact", "--matrix", m, "--order", "3", "--budget", "10"], capsys)
    assert rc == 3
    assert "C(12,3) = 220" in err


def test_exit_code_four_on_unit_columns(tmp_path, capsys):
    pa = str(tmp_path / "a.txt")
    run_cli(["generate", "model-a", "--n", "5", "--seed", "7", "--out", pa], capsys)
    rc, _, err = run_cli(["lazy", "--matrix", pa, "--probe-order", "2",
                          "--delta", "0.5"], capsys)
    assert rc == 4
    assert "requires unit columns" in err


def test_main_builds_no_parser_per_call(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    m = make_matrix(tmp_path, capsys)
    assert run_cli(["coherence", "--matrix", m], capsys)[0] == 0
    assert run_cli(["exact", "--matrix", m, "--order", "2"], capsys)[0] == 0
    assert len(built) <= 1


def test_shared_parser_leaks_nothing_between_calls(tmp_path, capsys):
    m = make_matrix(tmp_path, capsys)
    reports = [str(tmp_path / f"r{i}.json") for i in range(4)]
    argvs = [["exact", "--matrix", m, "--order", "2", "--threshold", "0.5"],
             ["exact", "--matrix", m, "--order", "2"],
             ["experiment", "--preset", "desk-200", "--trials", "1", "--seed", "1"],
             ["experiment", "--n", "20", "--clique-size", "8", "--order", "8",
              "--delta", "0.2", "--trials", "1", "--seed", "1"]]
    for argv, rep in zip(argvs, reports):
        rc, _, err = run_cli(argv + ["--out", rep], capsys)
        assert rc == 0, err
    params = [read_report(rep)["params"] for rep in reports]
    assert [p["threshold"] for p in params[:2]] == [0.5, None]
    assert [p["preset"] for p in params[2:]] == ["desk-200", None]


def test_argparse_rejects_unknown(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--matrix"])  # missing value
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_experiment_asym_needs_n_and_eps(capsys):
    rc, _, err = run_cli(["experiment", "--preset", "asym", "--seed", "1"], capsys)
    assert rc == 2
    assert "requires --n and --eps" in err


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_experiment_flags_override_the_preset(tmp_path, capsys):
    rep = str(tmp_path / "e.json")

    def run_params(argv):
        rc, _, err = run_cli(["experiment"] + argv + ["--out", rep], capsys)
        assert rc == 0, err
        p = read_report(rep)["params"]
        return p["n"], p["clique_size"], p["order"], p["delta"], p["trials"]

    assert run_params(["--preset", "desk-200", "--n", "100", "--order", "10",
                       "--trials", "1", "--seed", "2"]) == (100, 14, 10, 0.2, 1)
    asym = asym_preset(64, 0.1)
    assert run_params(["--preset", "asym", "--n", "64", "--eps", "0.1", "--order", "5",
                       "--trials", "1", "--seed", "4"]) == (64, asym["clique_size"], 5,
                                                            asym["delta"], 1)
    # without a preset or --trials, the library's default trial count
    assert run_params(["--n", "12", "--clique-size", "6", "--order", "3", "--delta", "0.3",
                       "--seed", "2"]) == (12, 6, 3, 0.3, 20)


def test_experiment_names_missing_parameters_in_flag_order(capsys):
    for argv, missing in ((["--seed", "1"], "--n, --clique-size, --order, --delta"),
                          (["--n", "20", "--order", "3", "--seed", "1"], "--clique-size, --delta"),
                          (["--preset", "desk-200", "--n", "20", "--seed", "1"], None)):
        rc, out, err = run_cli(["experiment", "--trials", "0"] + argv, capsys)
        assert rc == 2 and out == ""
        if missing is None:  # a preset supplies them all; the library refuses 0 trials
            assert err == "error: need at least one trial, got 0\n"
        else:
            assert err == f"error: missing required experiment parameters: {missing}\n"


# every G(16, 1/2) draw of seed 1's three trials fails to factor at c = 0.9
ZERO_NULL_RUN = ["experiment", "--null-stat", "exact", "--n", "16", "--clique-size", "4",
                 "--order", "3", "--delta", "0.5", "--c", "0.9", "--trials", "3", "--seed", "1"]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("rect", [[], ["--rect-cols", "5"]])
def test_exact_null_arm_scans_zero_reductions(rect, tmp_path, capsys):
    rep = str(tmp_path / "e.json")
    rc, out, err = run_cli(ZERO_NULL_RUN + rect + ["--out", rep], capsys)
    assert rc == 0, err
    assert out == "tp=3 fp=3 trials=3\n"
    null = [t for t in read_report(rep)["results"]["trials"] if t["arm"] == "null"]
    assert len(null) == 3
    params = ReductionParams(c=0.9)
    for t in null:
        g = gen_gnp_half(16, Seed(**t["seed"]))
        assert not cholesky_reduce(g, params).any()
        # exact_rip's first subset lies in the zero block: deviation exactly 1
        assert (t["statistic"], t["decision"]) == (1.0, "violates-rip")


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("rect, subsets", [([], "C(16,3) = 560"),
                                           (["--rect-cols", "5"], "C(21,3) = 1330")])
def test_budget_bounds_exact_scans_of_zero_reductions(rect, subsets, tmp_path, capsys):
    rep = tmp_path / "e.json"
    rc, out, err = run_cli(ZERO_NULL_RUN + rect + ["--budget", "100", "--out", str(rep)],
                           capsys)
    assert rc == 3 and out == ""
    assert err.endswith(f"error: {subsets} subsets exceeds the enumeration budget 100\n")
    assert not rep.exists()


def test_generator_sizes_above_the_vertex_cap_exit_two(tmp_path, capsys):
    # refused before the n x n adjacency or n(n-1)/2 sign words are allocated
    n = str(MAX_GRAPH_VERTICES + 1)
    out_file = tmp_path / "o.txt"
    rep = tmp_path / "r.json"
    for model in (["gnp"], ["planted", "--t", "3"], ["model-a"], ["model-b"]):
        rc, out, err = run_cli(["generate", *model, "--n", n, "--seed", "1",
                                "--out", str(out_file), "--report", str(rep)], capsys)
        assert rc == 2 and out == ""
        assert f"graph needs 1 to {MAX_GRAPH_VERTICES} vertices, got n={n}" in err
    assert not out_file.exists() and not rep.exists()
    rc, out, err = run_cli(["experiment", "--n", n, "--clique-size", "4", "--order", "3",
                            "--delta", "0.001", "--trials", "1", "--seed", "1",
                            "--out", str(rep)], capsys)
    assert rc == 2 and out == ""
    assert f"got n={n}" in err
    assert not rep.exists()
    # Bernoulli sizes are capped at the entry count of the largest sign matrix
    rc, out, err = run_cli(["generate", "bernoulli", "--dims", "16385", "16384", "--seed", "1",
                            "--out", str(out_file), "--report", str(rep)], capsys)
    assert rc == 2 and out == ""
    assert f"at most {2**28} entries, got 16385x16384" in err
    assert not out_file.exists() and not rep.exists()
    rc, out, err = run_cli(["experiment", "--n", "16", "--clique-size", "4", "--order", "3",
                            "--delta", "0.001", "--trials", "1", "--seed", "1",
                            "--rect-cols", "16777217", "--out", str(rep)], capsys)
    assert rc == 2 and out == ""
    assert f"at most {2**28} entries, got 16x16777217" in err
    assert not rep.exists()


def test_report_results_deterministic(tmp_path, capsys):
    m = make_matrix(tmp_path, capsys)
    r1 = str(tmp_path / "r1.json")
    r2 = str(tmp_path / "r2.json")
    run_cli(["exact", "--matrix", m, "--order", "3", "--out", r1], capsys)
    run_cli(["exact", "--matrix", m, "--order", "3", "--out", r2], capsys)
    assert results_bytes(read_report(r1)) == results_bytes(read_report(r2))


def test_installed_entry_point(tmp_path):
    """One end-to-end run through the real console script."""
    m = str(tmp_path / "m.txt")
    r = subprocess.run(
        [sys.executable, "-m", "riplab.cli", "generate", "bernoulli",
         "--dims", "4", "6", "--seed", "0", "--out", m],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == f"wrote={m}\n"
    r2 = subprocess.run(
        [sys.executable, "-m", "riplab.cli", "exact", "--matrix", m, "--order", "2"],
        capture_output=True, text=True,
    )
    assert r2.returncode == 0, r2.stderr
    assert r2.stdout.startswith("delta=")


def test_library_warnings_print_as_warning_lines(tmp_path):
    """A library warning reaches stderr as one ``warning: ...`` line, with no
    install path or source line, and the report's diagnostics."""
    rep = tmp_path / "e.json"
    r = subprocess.run(
        [sys.executable, "-m", "riplab.cli", "experiment", "--n", "12", "--clique-size", "6",
         "--order", "3", "--delta", "0.2", "--trials", "2", "--seed", "5", "--out", str(rep)],
        capture_output=True, text=True,
    )
    message = ("delta = 0.2 is not below the clique witness deviation 0.173205; "
               "planted-arm detection is no longer guaranteed")
    assert r.returncode == 0
    assert r.stderr == f"warning: {message}\n"
    assert read_report(rep)["diagnostics"] == {"warnings": [message]}


def test_warnings_print_before_the_error(tmp_path, capsys):
    # c = 0.9 warns when the parameters are built; the zero trials then fail
    rc, out, err = run_cli(["experiment", "--n", "12", "--clique-size", "6", "--order", "3",
                            "--delta", "0.2", "--c", "0.9", "--trials", "0", "--seed", "5"],
                           capsys)
    assert rc == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 2 and lines[0].startswith("warning: reduction constant c = 0.9 ")
    assert lines[1] == "error: need at least one trial, got 0"


def test_lazy_ratio_is_null_when_it_overflows_a_double(tmp_path, capsys):
    # column 1 tilted toward e0: probe parameter ~0.0017 lifts to k_max = 530,
    # and C(1100, 530) / C(1100, 2) is far beyond the largest double
    phi = np.eye(1100)
    phi[0, 1], phi[1, 1] = math.sin(0.0017), math.cos(0.0017)
    m = str(tmp_path / "tilt.txt")
    write_matrix_file(m, phi)
    rep = str(tmp_path / "r.json")
    rc, out, err = run_cli(["lazy", "--matrix", m, "--probe-order", "2",
                            "--delta", "0.9", "--out", rep], capsys)
    assert rc == 0, err
    assert out.endswith(" k_max=530\n")
    res = read_report(rep)["results"]
    assert res["naive_plan_subsets"] == math.comb(1100, 530)
    assert res["lazy_vs_naive_ratio"] is None


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-10", "0.5"])
def test_bad_psd_tolerance_exits_two_and_writes_nothing(tol, tmp_path, capsys):
    # the PSD tolerance is a constant, so no --psd-tol is accepted: at 0.5 this
    # graph's "factor" would have max |C^T C - B| = 0.09 (lambda_min(B) = -0.459)
    from riplab.fileio import write_graph_file

    g = str(tmp_path / "g.txt")
    write_graph_file(g, gen_gnp_half(16, Seed(1)))
    c = tmp_path / "c.txt"
    rep = tmp_path / "r.json"
    commands = (
        ["reduce", "--graph", g, "--c", "0.9", f"--psd-tol={tol}", "--out", str(c),
         "--report", str(rep)],
        ["experiment", "--n", "16", "--clique-size", "4", "--order", "3", "--delta", "0.5",
         "--c", "0.9", "--trials", "3", "--seed", "1", f"--psd-tol={tol}", "--out", str(rep)],
    )
    for argv in commands:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --psd-tol" in captured.err
    assert not c.exists() and not rep.exists()


@pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
def test_non_finite_c_exits_two_and_writes_nothing(c, tmp_path, capsys):
    from riplab.fileio import write_graph_file
    from riplab.randgen import Graph

    g = str(tmp_path / "g.txt")
    write_graph_file(g, Graph(4))
    out_file = tmp_path / "o.txt"
    rep = tmp_path / "r.json"
    for argv in (["generate", "model-b", "--n", "4", "--seed", "3"], ["reduce", "--graph", g]):
        rc, out, err = run_cli(argv + [f"--c={c}", "--out", str(out_file),
                                       "--report", str(rep)], capsys)
        assert rc == 2 and out == ""
        assert f"--c must be finite, got {c}" in err
        assert not out_file.exists() and not rep.exists()
    rc, out, err = run_cli(["experiment", "--preset", "desk-200", "--trials", "1", "--seed", "1",
                            f"--c={c}", "--out", str(rep)], capsys)
    assert rc == 2 and out == ""
    assert f"--c must be finite, got {c}" in err
    assert not rep.exists()


def test_reduce_replays_its_golden_factor(tmp_path, capsys, monkeypatch):
    # the factor file that reduce writes for a committed graph, byte for byte
    tests = Path(__file__).parent
    monkeypatch.chdir(tests)
    out = tmp_path / "factor.txt"
    rc, stdout, _ = run_cli(["reduce", "--graph", "golden/gnp_16_seed3.txt", "--out", str(out)],
                            capsys)
    assert rc == 0 and stdout == f"status=ok\nwrote={out}\n"
    assert out.read_bytes() == (tests / "golden" / "reduce_gnp16_factor.txt").read_bytes()


def test_perfbench_tracer_finds_its_names(tmp_path, capsys, monkeypatch):
    # perfbench's traced mode wraps riplab functions by module attribute, so a
    # name it patches that riplab lost raises AttributeError here
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    layers = importlib.import_module("layers")
    layers.make_tracer(riplab).unpatch()
    assert riplab.cli.main is main
    m = make_matrix(tmp_path, capsys)
    # perfbench passes --workers, which the serial scan accepts and ignores
    rc, out, _ = run_cli(["exact", "--matrix", m, "--order", "2", "--workers", "2"], capsys)
    assert rc == 0 and out.startswith("delta=")


def test_perfbench_tracer_sees_one_eigensolve_per_null_trial(capsys, monkeypatch):
    # the lambda1 null arm's one eigensolve is the refuter's, visible to
    # perfbench's traced mode; with --rect-cols only the planted arms draw a
    # sensing matrix, since only exact mode reads the null arm's frame
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    tracer = importlib.import_module("layers").make_tracer(riplab)
    try:
        with tracer.op(0):
            rc, out, _ = run_cli(["experiment", "--n", "20", "--clique-size", "8",
                                  "--order", "8", "--delta", "0.2", "--trials", "3",
                                  "--rect-cols", "10", "--seed", "3"], capsys)
    finally:
        tracer.unpatch()
    assert rc == 0 and out.startswith("tp=3 ")
    names = [s[0] for s in tracer.spans
             if s[0].startswith("randgen.") or s[0] == "linalg.sym_eigenvalues"]
    null = ["randgen.gen_gnp_half", "linalg.sym_eigenvalues"]
    planted = ["randgen.gen_gnp_half", "randgen.plant_clique", "randgen.gen_bernoulli_sensing"]
    assert names == (null + planted) * 3


# argv with {m} (matrix file), {g} (graph file), {o} (output file); report flag
REPORT_CASES = {
    "exact": (["exact", "--matrix", "{m}", "--order", "2"], "--out"),
    "coherence": (["coherence", "--matrix", "{m}"], "--out"),
    "lazy": (["lazy", "--matrix", "{m}", "--probe-order", "2", "--delta", "0.9"], "--out"),
    "generate-bernoulli": (["generate", "bernoulli", "--dims", "3", "5", "--seed", "1",
                            "--out", "{o}"], "--report"),
    "generate-model-a": (["generate", "model-a", "--n", "4", "--seed", "1", "--out", "{o}"],
                         "--report"),
    "generate-model-b": (["generate", "model-b", "--n", "4", "--seed", "1", "--out", "{o}"],
                         "--report"),
    "generate-gnp": (["generate", "gnp", "--n", "6", "--seed", "1", "--out", "{o}"],
                     "--report"),
    "generate-planted": (["generate", "planted", "--n", "6", "--t", "3", "--seed", "1",
                          "--out", "{o}"], "--report"),
    "reduce": (["reduce", "--graph", "{g}", "--out", "{o}"], "--report"),
    "refute": (["refute", "--graph", "{g}", "--k", "3"], "--report"),
    "experiment": (["experiment", "--n", "20", "--clique-size", "8", "--order", "8",
                    "--delta", "0.2", "--trials", "1", "--seed", "3"], "--out"),
}


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_every_command_writes_the_same_report_shape(case, tmp_path, capsys):
    g = str(tmp_path / "g.txt")
    run_cli(["generate", "planted", "--n", "10", "--t", "4", "--seed", "4", "--out", g],
            capsys)
    paths = {"m": make_matrix(tmp_path, capsys), "g": g, "o": str(tmp_path / "o.txt")}
    template, flag = REPORT_CASES[case]
    argv = [a.format(**paths) for a in template]
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0 and out
    assert not list(tmp_path.glob("*.json"))
    rep = str(tmp_path / "r.json")
    rc, out_with_report, _ = run_cli(argv + [flag, rep], capsys)
    assert rc == 0 and out_with_report == out
    doc = read_report(rep)
    # refute records the proof that decided, exact and lazy their scan's
    # counters, all outside results; no other command has diagnostics
    diagnostics = ["diagnostics"] if case in ("refute", "exact", "lazy") else []
    assert sorted(doc) == sorted(["command", "params", "results", "seed", "tool_version",
                                  "wall_time_ns"] + diagnostics)
    if case == "refute":
        assert doc["diagnostics"] == {"proof": "vector"}  # the planted 4-clique, k = 3
    elif diagnostics:
        scan = doc["diagnostics"]
        assert sorted(scan) == ["bound_tables", "prefixes_pruned", "seed_level", "subsets_proved",
                                "subsets_pruned", "subsets_screened", "subsets_solved"]
        assert scan["bound_tables"] == "none"  # order 2 has no prefix to bound
        assert sum(scan[f"subsets_{way}"] for way in ("pruned", "screened", "proved", "solved")) == 66
    assert (doc["seed"] is not None) == (argv[0] in ("generate", "experiment"))
    assert doc["command"] == argv + [flag, rep]
    assert doc["wall_time_ns"] > 0
