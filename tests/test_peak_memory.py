"""Heap guards: the kernels of a doubling step, each whole step, a capped
solve of each solver and ``min_entry`` free each n-wide block at its last
read.

tracemalloc counts NumPy's allocations to the byte, and the same inputs
allocate the same blocks, so each bound is exact: the n-wide blocks a kernel
must hold, plus a stated slack for its n-vectors and small cores.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from transport_nare import structured_linalg
from transport_nare.modified_sda_ls import msda_init, msda_solve, msda_step
from transport_nare.sda_ls import (
    LowRankState,
    SolverConfig,
    sda_ls_solve,
    sda_ls_step,
    step_cores,
)
from transport_nare.structured_linalg import (
    MIN_ENTRY_BLOCK,
    RESIDUAL_BLOCK,
    BaseOperators,
    Correction,
    ImplicitIterate,
    LowRankBilinear,
    gamma_select,
    residual_norm,
)
from transport_nare.transport_problem import balance, make_instance, unbalance_scale

N = 4096
#: bytes per float64 entry
F8 = 8


@pytest.fixture
def peak_during():
    """Trace the heap for the whole test; give a call's peak above its start."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()

    def peak(call):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before

    try:
        yield peak
    finally:
        if started:
            tracemalloc.stop()


def random_triple(n, r, seed):
    rng = np.random.default_rng(seed)
    left, _ = np.linalg.qr(rng.standard_normal((n, r)))
    right, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return LowRankBilinear(np.asfortranarray(left), np.linspace(1.0, 0.1, r),
                           np.asfortranarray(right))


# Measured: 952,176 B above the heap at the call, U_hat (2 r + 1 columns)
# being 819,200 B; the rest is n-vectors (X^T v + u, -delta) and small
# cores.  The bound leaves 194,704 B.  U_hat one column wider (2 r + 2,
# with the rank-one terms in two pieces) took the call to 984,888 B;
# forming V_hat and its product with R^T whole as well, as residual_norm
# did before it summed over row blocks, took it to 1,743,837 B.
RESIDUAL_SLACK = 64 * 1024


def test_residual_norm_holds_u_hat_and_one_row_block(peak_during):
    r = 12
    inst = make_instance(N, 0.9, 0.1)
    X = random_triple(N, r, seed=3)
    u_hat = N * (2 * r + 1) * F8
    block = RESIDUAL_BLOCK * F8
    assert peak_during(lambda: residual_norm(inst, X)) <= u_hat + block + RESIDUAL_SLACK


# Measured: 15,832 B (push_update, rank 11 -> 20) and 72,360 B
# (push_symmetric, rank 10 -> 10) above the stacks, less the old U where it
# goes before the right stack, plus the new factors' growth over the old;
# the slacks leave 49,704 B and 58,712 B.  Holding the old U until both
# stacks were factored took push_update's excess to 140,872 B.
PUSH_SLACK = {"push_update": 64 * 1024, "push_symmetric": 128 * 1024}


@pytest.mark.parametrize("symmetric", [False, True],
                         ids=["push_update", "push_symmetric"])
def test_push_frees_the_old_factors_before_the_new_ones(peak_during, symmetric):
    inst = make_instance(N, 0.9, 0.1)
    if symmetric:
        inst = balance(inst)
    imp = ImplicitIterate(BaseOperators(inst, gamma_select(inst)).E,
                          trunc_rel=1e-15)
    rng = np.random.default_rng(5)
    sides = 1 if symmetric else 2

    def push(l):
        z = [np.asfortranarray(rng.standard_normal((N, l))) for _ in range(sides)]
        if symmetric:
            return lambda: imp.push_symmetric(z[0], np.ones(l))
        return lambda: imp.push_update(Correction(z[0], np.eye(l), z[1]))

    push(3)()
    push(3)()
    r, l = imp.rank, 4
    step = push(l)
    peak = peak_during(step)
    stacks = sides * N * (2 * r + l) * F8
    # the old U goes once the left stack is factored, before the right one
    # is allocated (one stack serves both sides of a symmetric push); the
    # new U is formed with both stacks held and the old V dropped; the left
    # stack is dropped before the new V is formed
    released = N * (sides - 1) * r * F8
    growth = N * max(0, imp.rank - r) * F8
    assert peak <= stacks - released + growth + PUSH_SLACK[
        "push_symmetric" if symmetric else "push_update"]


def test_push_update_consumes_its_correction(monkeypatch):
    # each factor of the Correction, and the old U, is gone once its stack
    # holds a copy, before the next stack is allocated; a factor the caller
    # still references stays alive and unchanged
    n, l = 64, 3
    inst = make_instance(n, 0.9, 0.1)
    imp = ImplicitIterate(BaseOperators(inst, gamma_select(inst)).E)
    rng = np.random.default_rng(2)
    zl, zr = rng.standard_normal((n, l)), rng.standard_normal((n, l))
    kept = zr.copy()
    left, old_u = weakref.ref(zl), weakref.ref(imp.U)
    update = Correction(zl, np.eye(l), zr)
    del zl
    alive, qr = [], structured_linalg._StackQR

    def stack(a):
        alive.append((left() is not None, old_u() is not None))
        return qr(a)

    monkeypatch.setattr(structured_linalg, "_StackQR", stack)
    imp.push_update(update)
    assert alive == [(True, True), (False, False)]
    assert left() is None and old_u() is None
    assert update.left is None and update.right is None
    assert np.array_equal(zr, kept)


def mid_run(init, step, inst, k=10):
    """The state after k doublings, k = 10 being about a third of a converged
    run at N."""
    st = init(inst)
    for _ in range(k):
        step(st)
    return st


# Measured on (N, 0.9, 0.1) after 10 doublings, H rank 16 -> 18 and E, F rank
# 14: 2,576,616 B above the heap at the call, against 2,490,368 B for E Q2,
# F Q1 and F's push stack; the slack leaves 44,824 B.  Extending H before
# the pushes, with both products held through its two stacks, took the step
# to 2,708,048 B.
STEP_SLACK = 128 * 1024


def test_msda_step_frees_each_product_at_its_last_read(peak_during):
    st = mid_run(msda_init, msda_step, balance(make_instance(N, 0.9, 0.1)))
    m, e_rank, f_rank = st.H.rank, st.Eimp.rank, st.Fimp.rank
    peak = peak_during(lambda: msda_step(st))
    # E Q2 and F Q1 live through both pushes; F's push stack (2 r + m) is
    # the widest the step allocates, wider than the extend's two stacks
    # (4 m) less the H factors and products they replace; E's push is done
    products = 2 * m
    stack = max(2 * f_rank + m, 2 * m)
    growth = max(0, st.Eimp.rank - e_rank)
    assert peak <= N * F8 * (products + stack + growth) + STEP_SLACK


# Measured on (N, 0.9, 0.1) after 10 doublings, H rank 15 -> 16, G 16 -> 18,
# E and F rank 11 and E's update screened to 12 x 9: 3,004,498 B above the
# heap at the call, set in H's extend, against 2,981,888 B for its three
# products and its stacks less the old Q1; the slack leaves 108,462 B.  The
# order H extend, E push, G extend, F push, with E's push holding F Q1 and
# the old U through both its stacks, took the step to 3,790,854 B.
def test_sda_ls_step_holds_at_most_three_products(peak_during):
    st = mid_run(LowRankState, sda_ls_step, make_instance(N, 0.9, 0.1))
    m, l, r, f = st.H.rank, st.G.rank, st.Eimp.rank, st.Fimp.rank
    _, _, WE, WF = step_cores(st)
    (a, b), (c, e) = st.Eimp.screen(WE), st.Fimp.screen(WF)
    peak = peak_during(lambda: sda_ls_step(st))
    grown_e = 2 * max(0, st.Eimp.rank - r)
    grown_h = 2 * max(0, st.H.rank - m)
    grown_g = 2 * max(0, st.G.rank - l)
    # E's push holds E P1 and E^T Q2 (l + m) and its stacks (2 r + a and
    # 2 r + b), the old U gone before the right one; the new U is formed
    # once the old V is gone too
    push_e = l + m + 4 * r + a + b - r + max(0, st.Eimp.rank - r)
    # H's extend holds E P1, E^T Q2 and F Q1 (l + 2 m) and its stacks (2 m
    # each), the old Q1 gone before the second; G's holds E P1, F Q1 and
    # F^T P2 (2 l + m) and its stacks (2 l each), the old P1 and E P1 gone
    # before the second
    extend_h = l + 5 * m + grown_e
    extend_g = 4 * l + m + grown_e + grown_h
    # F's push holds F^T P2 (l) and its stacks (2 f + c and 2 f + e), the old
    # U and F Q1 gone before the right one
    push_f = (l + 4 * f + c + e - f + max(0, st.Fimp.rank - f)
              + grown_e + grown_h + grown_g)
    assert peak <= N * F8 * max(push_e, extend_h, extend_g, push_f) + STEP_SLACK


# Measured on (N, 0.9, 0.1) after 11 msda doublings, H rank 18: 1,968,176 B
# above the heap at the call, against 1,212,416 B for U_hat (2 r + 1
# columns) and 589,824 B for the one unbalanced (right) factor; with one
# row block the bound leaves 161,744 B.  Unbalancing both factors into a
# new triple first, as the residual did before, took the call to
# 2,558,376 B.
def test_msda_residual_forms_one_unbalanced_factor(peak_during):
    inst = make_instance(N, 0.9, 0.1)
    st = mid_run(msda_init, msda_step, balance(inst), k=11)
    r = st.H.rank
    peak = peak_during(
        lambda: residual_norm(inst, st.H, scale=unbalance_scale(inst)))
    u_hat = N * (2 * r + 1) * F8
    factor = N * r * F8
    block = RESIDUAL_BLOCK * F8
    assert peak <= u_hat + factor + block + RESIDUAL_SLACK


# Measured: 2,966,291 B (2,973,239 B as a process's first solve) above the
# heap at the call; the bound (3 MiB) leaves 172,489 B.  The peak is F's push
# at level 8 (E and F rank 10), with the H extend and the residual within 4%
# of it.  Truncating E and F against their corrections' largest values and
# pushing every update column, as before, took the solve to 3,495,913 B.
CAPPED_MSDA_BOUND = 3 * 1024 * 1024


def test_msda_capped_solve_peak(peak_during):
    inst = make_instance(N, 0.9, 0.1)
    peak = peak_during(lambda: msda_solve(inst, SolverConfig(max_iter=8)))
    assert peak <= CAPPED_MSDA_BOUND


# Measured: 4,914,700 B (4,907,470 B as a process's second solve) above the
# heap at the call, set in E's push; the bound leaves 66,036 B.
# Pushing E after the H extend, with F Q1 and the old U held through E's
# push, took the solve to 5,635,885 B.
CAPPED_SDA_BOUND = 4864 * 1024    # 4.75 MiB


def test_sda_ls_capped_solve_peak(peak_during):
    inst = make_instance(N, 0.9, 0.1)
    peak = peak_during(lambda: sda_ls_solve(inst, SolverConfig(max_iter=8)))
    assert peak <= CAPPED_SDA_BOUND


# Measured: 3,605,808 B above the heap at the call on a rank-46 triple, 1,328
# B above the scaled right factor and one row block; the slack leaves
# 15,056 B.  Blocks of 2^22 entries, the previous one held while the next
# was formed, took it to 68,617,184 B.
MIN_ENTRY_SLACK = 16 * 1024


def test_min_entry_holds_one_row_block(peak_during):
    r = 46
    X = random_triple(N, r, seed=9)
    peak = peak_during(X.min_entry)
    assert peak <= N * r * F8 + MIN_ENTRY_BLOCK * F8 + MIN_ENTRY_SLACK
