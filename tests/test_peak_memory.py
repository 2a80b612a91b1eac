"""Heap guards: the kernels of a doubling step, and each whole step, free each
n-wide block at its last read.

tracemalloc counts NumPy's allocations to the byte, and the same inputs
allocate the same blocks, so each bound is exact: the n-wide blocks a kernel
must hold, plus a stated slack for its n-vectors and small cores.
"""

import tracemalloc

import numpy as np
import pytest

from transport_nare.modified_sda_ls import msda_init, msda_solve, msda_step
from transport_nare.sda_ls import LowRankState, SolverConfig, sda_ls_step
from transport_nare.structured_linalg import (
    RESIDUAL_BLOCK,
    BaseOperators,
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


# Measured: 75,280 B (push_update, rank 11 -> 20) and 72,288 B
# (push_symmetric, rank 10 -> 10) above the stacks plus the new factors'
# growth over the old; the slack leaves 55,792 B and 58,784 B.  Holding the
# old factors through the push took the excess to 768,440 B and 370,968 B;
# holding the left stack while V is formed took push_update's to 637,112 B.
PUSH_SLACK = 128 * 1024


@pytest.mark.parametrize("symmetric", [False, True],
                         ids=["push_update", "push_symmetric"])
def test_push_frees_the_old_factors_before_the_new_ones(peak_during, symmetric):
    inst = make_instance(N, 0.9, 0.1)
    if symmetric:
        inst = balance(inst)
    imp = ImplicitIterate(BaseOperators(inst, gamma_select(inst)), "E",
                          trunc_rel=1e-15)
    rng = np.random.default_rng(5)
    sides = 1 if symmetric else 2

    def push(l):
        z = [np.asfortranarray(rng.standard_normal((N, l))) for _ in range(sides)]
        if symmetric:
            return lambda: imp.push_symmetric(z[0], np.ones(l))
        return lambda: imp.push_update(z[0], np.eye(l), z[1])

    push(3)()
    push(3)()
    r, l = imp.rank, 4
    step = push(l)
    peak = peak_during(step)
    stacks = sides * N * (2 * r + l) * F8
    # the new U is formed with both stacks held and the old factors dropped;
    # the left stack is dropped before V is formed
    growth = N * (imp.rank - sides * r) * F8
    assert peak <= stacks + max(0, growth) + PUSH_SLACK


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
# E and F rank 14: 4,518,560 B above the heap at the call, against
# 4,423,680 B for three products, E's two push stacks and H's growth; the
# slack leaves 36,192 B.  Building all four products first and holding them
# through both pushes took the step to 5,174,152 B.
def test_sda_ls_step_holds_at_most_three_products(peak_during):
    st = mid_run(LowRankState, sda_ls_step, make_instance(N, 0.9, 0.1))
    m, l, r = st.H.rank, st.G.rank, st.Eimp.rank
    peak = peak_during(lambda: sda_ls_step(st))
    # E's push holds F Q1, E^T Q2 and E P1 (2 m + l) and its two stacks
    # (2 r + l and 2 r + m), after H's extend has grown H
    products = 2 * m + l
    stacks = 4 * r + l + m
    growth = 2 * max(0, st.H.rank - m)
    assert peak <= N * F8 * (products + stacks + growth) + STEP_SLACK


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
