"""Acceptance suite: one test per criterion, one verdict line under pytest -v.

Criterion 6 bounds the doubling count per cell by k* + 1, where
k* = ceil(log2(ln tol / ln rho)) is the count at which the a-priori rate
rho^(2^k) (Guo-Lin-Xu, Numer. Math. 2006) reaches tol, and
rho = max|(l - gamma)/(l + gamma)| over sigma(E - C X) times the same maximum
over sigma(A - X C).  The extra doubling absorbs any constant up to 1/tol in
the estimate C rho^(2^k).  Criterion 8 checks the closed-loop mirror relation:
the mirrored spectrum of M = [[E, -C], [B, -A]] is sigma(E - C X) together with
sigma(A - B Y) at the minimal solutions X and Y.
"""

import statistics
import time

import numpy as np
import pytest

from transport_nare.dense_sda import (
    dense_sda_init,
    dense_sda_solve,
    dense_sda_step,
    spectral_check,
)
from transport_nare.modified_sda_ls import audit_symmetry, msda_solve
from transport_nare.sda_ls import LowRankState, SolverConfig, sda_ls_solve, sda_ls_step
from transport_nare.structured_linalg import ShiftedSolver, gamma_select
from transport_nare.transport_problem import assemble_dense, make_instance

GRID_N = (16, 32, 64)
GRID_CELLS = ((0.5, 0.5), (0.9, 0.1), (0.999, 0.001))
X_SCALAR = 3.0 - 2.0 * np.sqrt(2.0)
TOL = 1e-12


@pytest.fixture(scope="module")
def grid():
    """Dense, general low-rank, and modified solutions over the sweep grid."""
    out = {}
    for n in GRID_N:
        for c, alpha in GRID_CELLS:
            inst = make_instance(n, c, alpha)
            Xd, _, drep = dense_sda_solve(inst)
            Hl, lrep = sda_ls_solve(inst)
            Xm, mrep = msda_solve(inst)
            out[(n, c, alpha)] = {
                "inst": inst, "dense": (Xd, drep),
                "sda_ls": (Hl, lrep), "msda": (Xm, mrep),
            }
    return out


def test_criterion_01_scalar_analytic_oracle():
    inst = make_instance(1, 0.5, 0.0)
    Xd, _, drep = dense_sda_solve(inst)
    Hl, lrep = sda_ls_solve(inst)
    Xm, mrep = msda_solve(inst)
    for value, rep in ((Xd[0, 0], drep), (Hl.entry(0, 0), lrep),
                       (Xm.entry(0, 0), mrep)):
        assert abs(value - X_SCALAR) <= 1e-12, rep.algorithm
        assert rep.iterations <= 6, rep.algorithm


def test_criterion_02_dense_oracle_equivalence(grid):
    worst = {}
    for key, cell in grid.items():
        Xd = cell["dense"][0]
        scale = np.linalg.norm(Xd)
        for algo in ("sda_ls", "msda"):
            X, rep = cell[algo]
            assert rep.termination in ("converged", "stagnated"), (key, algo)
            diff = np.linalg.norm(X.dense() - Xd) / scale
            worst[key + (algo,)] = diff
            assert diff <= 1e-10, (key, algo, diff)
    assert max(worst.values()) <= 1e-10


def test_criterion_03_no_truncation_iterate_equivalence():
    cfg = SolverConfig(trunc_rel=0.0, max_rank=200)
    for n in (16, 64):
        for c, alpha in GRID_CELLS:
            inst = make_instance(n, c, alpha)
            _, _, drep = dense_sda_solve(inst)
            kmax = drep.iterations
            A, B, C, E = assemble_dense(inst)
            dstate = dense_sda_init(A, B, C, E, gamma_select(inst))
            lstate = LowRankState(inst, config=cfg)
            assert lstate.gamma == dstate.gamma
            for k in range(kmax + 1):
                Hd = dstate.H
                dev = np.linalg.norm(lstate.H.dense() - Hd) / np.linalg.norm(Hd)
                assert dev <= 1e-10, (n, c, alpha, k, dev)
                if k < kmax:
                    dense_sda_step(dstate)
                    sda_ls_step(lstate)


def test_criterion_04_symmetry_audit():
    runs = [
        (make_instance(8, 0.5, 0.5), SolverConfig(trunc_rel=0.0)),
        (make_instance(32, 0.9, 0.1), SolverConfig(trunc_rel=0.0)),
        (make_instance(64, 0.999, 0.001), SolverConfig()),
    ]
    for inst, cfg in runs:
        audit = audit_symmetry(inst, k_max=5, config=cfg)
        assert audit.max_gated() <= 1e-10, (inst.n, audit.max_gated())


def test_criterion_05_flop_halving():
    inst = make_instance(1024, 0.9, 0.1)
    cfg = SolverConfig(max_iter=6)
    _, rep_ls = sda_ls_solve(inst, config=cfg)
    _, rep_m = msda_solve(inst, config=cfg)
    for k in range(1, 7):
        assert rep_ls.flops.iteration_events(k, "implicit_block_apply") == 4, k
        assert rep_m.flops.iteration_events(k, "implicit_block_apply") == 2, k
        if k >= 2:
            ls = rep_ls.flops.iteration_total(k, exclude=("residual",))
            mo = rep_m.flops.iteration_total(k, exclude=("residual",))
            ratio = mo / ls
            # read 0.4837, 0.4614, 0.4382, 0.4444, 0.4394 on levels 2 to 6
            assert 0.4 <= ratio <= 0.6, (k, ratio, "read 0.438 to 0.484")


def doubling_count(inst, X, gamma, tol=TOL):
    """k*, the least k with rho^(2^k) <= tol for the a-priori doubling rate rho."""
    A, B, C, E = assemble_dense(inst)
    rho = 1.0
    for closed_loop in (E - C @ X, A - X @ C):
        lam = np.linalg.eigvals(closed_loop)
        rho *= np.max(np.abs((lam - gamma) / (lam + gamma)))
    return int(np.ceil(np.log2(np.log(tol) / np.log(rho))))


def test_criterion_06_quadratic_convergence_and_iteration_bound(grid):
    counts, unconverged = {}, {}
    for key, cell in grid.items():
        _, lrep = cell["sda_ls"]
        _, mrep = cell["msda"]
        kstar = doubling_count(cell["inst"], cell["dense"][0], lrep.gamma)
        counts[key] = (kstar, lrep.iterations, mrep.iterations)
        for rep in (lrep, mrep):
            if rep.termination != "converged":
                unconverged[key + (rep.algorithm,)] = rep.final_residual
        # terminal quadratic decay: residual_{k+1} <= C residual_k^2, C finite
        hist = lrep.residual_history
        floor = int(np.argmin(hist))
        tail = hist[:floor + 1]
        assert len(tail) >= 4, key
        # the last four computed residuals come from consecutive doublings
        levels = lrep.residual_levels[floor - 3:floor + 1]
        assert levels == list(range(levels[-1] - 3, levels[-1] + 1)), key
        cs = [tail[i + 1] / tail[i] ** 2 for i in range(len(tail) - 4, len(tail) - 1)]
        assert all(np.isfinite(c) for c in cs), key
        # dense doubling operator decays at least as fast
        e_norms = cell["dense"][1].extras["e_norms"]
        assert all(np.isfinite(e) for e in e_norms)
    over = {k: v for k, v in counts.items() if max(v[1:]) > v[0] + 1}
    assert not over, (
        "doubling count exceeds k*+1 at tol %g on %d of %d sweep points; "
        "(k*, sda-ls, modified-sda-ls) per (n, c, alpha): %s"
        % (TOL, len(over), len(counts), sorted(counts.items())))
    assert not unconverged, (
        "runs that did not reach tol %g, final residual per cell: %s"
        % (TOL, unconverged))


def test_criterion_07_nonnegativity_and_original_residual(grid):
    for key, cell in grid.items():
        Hl, lrep = cell["sda_ls"]
        Xm, mrep = cell["msda"]
        assert Hl.min_entry() >= -1e-12, ("sda_ls", key)
        assert Xm.min_entry() >= -1e-12, ("msda", key)
        if mrep.termination == "converged":
            assert mrep.extras["residual_original"] <= 10.0 * TOL, key


def test_criterion_08_spectral_relation():
    # n = 1 is exact: both sides are {2*sqrt(2), 2*sqrt(2)}
    two_rt2 = 2.0 * np.sqrt(2.0)
    for n, c, alpha, anchor in ((1, 0.5, 0.0, [two_rt2, two_rt2]),
                                (8, 0.5, 0.5, None)):
        inst = make_instance(n, c, alpha)
        rep = spectral_check(inst)
        X, Y, _ = dense_sda_solve(inst)
        A, B, C, E = assemble_dense(inst)
        closed = np.concatenate([np.linalg.eigvals(E - C @ X),
                                 np.linalg.eigvals(A - B @ Y)])
        dist = np.max(np.abs(np.sort(rep.mirrored) - np.sort(closed)))
        assert dist <= 1e-8, (
            "mirrored spectrum of [[E,-C],[B,-A]] differs from "
            "sigma(E - C X) u sigma(A - B Y) by %.6e at n=%d (c=%g, alpha=%g)"
            % (dist, n, c, alpha))
        if anchor is not None:
            np.testing.assert_allclose(np.sort(closed), anchor, rtol=0, atol=1e-8)


def test_criterion_09_linear_scaling_wall_time():
    cfg = SolverConfig(max_iter=8)
    ratio = np.inf
    flops = {}
    for _ in range(2):                     # one retry to shrug off a noisy run
        med = {}
        for n in (2048, 4096):
            t0 = time.perf_counter()
            _, rep = sda_ls_solve(make_instance(n, 0.9, 0.1), config=cfg)
            assert time.perf_counter() - t0 < 60.0
            med[n] = statistics.median(rep.iter_times[1:])
            flops[n] = sum(rep.flops.iteration_total(k, exclude=("residual",))
                           for k in range(1, 9))
        ratio = min(ratio, med[4096] / med[2048])
        if ratio <= 2.5:
            break
    assert ratio <= 2.5, ratio
    # the counted work is deterministic and tells linear from flat, which the
    # wall-time ratio cannot at these sizes (measured 1.936)
    flop_ratio = flops[4096] / flops[2048]
    assert 1.8 <= flop_ratio <= 2.2, (flop_ratio, "read 1.936")


def test_criterion_10_smw_roundtrips():
    t0 = time.perf_counter()
    inst = make_instance(4096, 0.9, 0.1)
    solver = ShiftedSolver(inst, gamma_select(inst))
    for which in ShiftedSolver.WHICH:
        assert solver.roundtrip_error(which, probes=100) <= 1e-12, which
    assert time.perf_counter() - t0 < 5.0
