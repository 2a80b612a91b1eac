"""The gated doubling loop against an ungated reference loop.

``run_doubling`` computes a residual only at level 0, on every level from the
first whose relative H increment meets ``GATE_INCREMENT``, and at
``max_iter``.  The reference below drives each solver's init and step itself,
computes the residual on every level and stops by the same rule the loop
applied before it was gated.  Both must take the same doublings, end the same
way, record the same residual bits at the levels the solve kept and return
the same X bits.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from transport_nare import sda_ls
from transport_nare.dense_sda import (
    dense_residual,
    dense_sda_init,
    dense_sda_solve,
    dense_sda_step,
)
from transport_nare.modified_sda_ls import msda_init, msda_solve, msda_step
from transport_nare.sda_ls import (
    GATE_INCREMENT,
    GATE_OPEN_TOL,
    LowRankState,
    SolveReport,
    SolverConfig,
    run_doubling,
    sda_ls_solve,
    sda_ls_step,
    stagnated,
)
from transport_nare.structured_linalg import FlopModel, gamma_select, residual_norm
from transport_nare.transport_problem import (
    assemble_dense,
    balance,
    make_instance,
    unbalance_solution,
)

CELLS = ((0.5, 0.5), (0.9, 0.1), (0.999, 0.001))
GRID = [(n, c, a) for n in (16, 32, 64, 128) for c, a in CELLS]
ALGOS = ("sda-ls", "modified-sda-ls", "dense-sda")


def arrays(X):
    return (X,) if isinstance(X, np.ndarray) else (X.left, X.core, X.right)


def solve(algo, inst, config):
    if algo == "sda-ls":
        return sda_ls_solve(inst, config)
    if algo == "modified-sda-ls":
        return msda_solve(inst, config)
    X, _, rep = dense_sda_solve(inst, config)
    return X, rep


def parts(algo, inst, config):
    """Level-0 state, step, residual and returned X of one solver."""
    if algo == "sda-ls":
        st = LowRankState(inst, config, FlopModel())
        return (st, sda_ls_step, lambda: residual_norm(inst, st.H, st.flops)[1],
                lambda: st.H)
    if algo == "modified-sda-ls":
        st = msda_init(balance(inst), config, FlopModel())

        def solution():
            return unbalance_solution(st.H, inst)
        return (st, msda_step, lambda: residual_norm(inst, solution(), st.flops)[1],
                solution)
    A, B, C, E = assemble_dense(inst)
    st = dense_sda_init(A, B, C, E, gamma_select(inst))
    return st, dense_sda_step, lambda: dense_residual(A, B, C, E, st.H), lambda: st.H


def ungated(algo, inst, config):
    """(X, termination, residual of every level) of the loop without the gate."""
    st, step, residual, solution = parts(algo, inst, config)
    history = [residual()]
    termination = "max_iter"
    while st.k < config.max_iter:
        step(st)
        history.append(residual())
        if history[-1] <= config.tol_residual:
            termination = "converged"
            break
        if stagnated(history, config.tol_residual):
            termination = "stagnated"
            break
    return solution(), termination, history


def assert_same_run(algo, inst, config):
    X, rep = solve(algo, inst, config)
    X_ref, termination, history = ungated(algo, inst, config)
    assert rep.termination == termination
    assert rep.iterations == len(history) - 1
    assert rep.residual_history == [history[k] for k in rep.residual_levels]
    assert rep.residual_levels[0] == 0 and rep.residual_levels[-1] == rep.iterations
    assert all(np.array_equal(a, b) for a, b in zip(arrays(X), arrays(X_ref)))
    return rep


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("n,c,alpha", GRID)
def test_gated_solve_matches_ungated_loop(algo, n, c, alpha):
    rep = assert_same_run(algo, make_instance(n, c, alpha), SolverConfig())
    # the gate skips early levels: fewer residuals than levels
    assert len(rep.residual_history) < rep.iterations + 1


@pytest.mark.parametrize("algo", ALGOS[:2])
@pytest.mark.parametrize("c,alpha", CELLS)
def test_gated_solve_matches_ungated_loop_loose_truncation(algo, c, alpha):
    # the margin was measured at trunc_rel 1e-15 and 0; a looser truncation
    # moves the residuals and their floor, and the gate must stay exact there
    rep = assert_same_run(algo, make_instance(64, c, alpha), SolverConfig(trunc_rel=1e-8))
    assert len(rep.residual_history) < rep.iterations + 1


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("max_iter", [1, 5])
def test_gated_solve_matches_ungated_loop_at_budget(algo, max_iter):
    # the last level the budget allows always gets its residual
    rep = assert_same_run(algo, make_instance(32, 0.9, 0.1),
                          SolverConfig(max_iter=max_iter))
    assert rep.termination == "max_iter"
    assert rep.residual_levels == [0, max_iter]


@pytest.mark.parametrize("algo", ALGOS)
def test_loose_tolerance_evaluates_every_level(algo):
    # at tol 0.2 every solver meets tol at level 7 of (16, 0.9, 0.1), where no
    # increment has met the gate yet: only GATE_OPEN_TOL keeps the stop exact
    config = SolverConfig(tol_residual=0.2)
    assert config.tol_residual >= GATE_OPEN_TOL
    rep = assert_same_run(algo, make_instance(16, 0.9, 0.1), config)
    assert rep.termination == "converged" and rep.iterations == 7
    assert rep.residual_levels == list(range(8))
    assert min(rep.extras["increments"][1:]) > GATE_INCREMENT


def test_gate_stays_open_once_met():
    # a scripted state whose increment meets the gate at level 2 and then
    # rises above it again: every later level still gets its residual
    increments = [1.0, 0.5, 0.2, 0.3, 0.6, 0.1]
    st = SimpleNamespace(k=0, gamma=1.0, ranks=(1,), increment=increments[0],
                         levels=dict)

    def step(state):
        state.k += 1
        state.increment = increments[state.k]

    report = SolveReport(algorithm="scripted", n=1)
    run_doubling(report, SimpleNamespace(near_singular=False), lambda: st, step,
                 lambda _: 1.0, SolverConfig(max_iter=5))
    assert report.termination == "max_iter"
    assert report.residual_levels == [0, 2, 3, 4, 5]
    assert report.extras["increments"] == increments


def test_level_time_includes_its_residual(monkeypatch):
    # a scripted run on a scripted clock: init and each doubling take 1 s and
    # each residual sleeps 100 s, so a level's time is 101 s exactly when the
    # loop computed a residual on it, and the wall time is the whole run
    clock = [0.0]
    monkeypatch.setattr(sda_ls, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    increments = [1.0, 0.5, 0.5, 0.2, 0.1, 0.1]
    st = SimpleNamespace(k=0, gamma=1.0, ranks=(1,), increment=increments[0],
                         levels=dict)

    def init():
        clock[0] += 1.0
        return st

    def step(state):
        clock[0] += 1.0
        state.k += 1
        state.increment = increments[state.k]

    def residual(_):
        clock[0] += 100.0
        return 1.0

    report = SolveReport(algorithm="scripted", n=1)
    run_doubling(report, SimpleNamespace(near_singular=False), init, step,
                 residual, SolverConfig(max_iter=5))
    assert report.residual_levels == [0, 3, 4, 5]
    assert report.iter_times == [101.0, 1.0, 1.0, 101.0, 101.0, 101.0]
    assert report.to_dict()["wall_time_s"] == clock[0]
