"""Heap guards: the kernels of a doubling step free each n-wide block at its
last read.

tracemalloc counts NumPy's allocations to the byte, and the same inputs
allocate the same blocks, so each bound is exact: the n-wide blocks a kernel
must hold, plus a stated slack for its n-vectors and small cores.
"""

import tracemalloc

import numpy as np
import pytest

from transport_nare.structured_linalg import (
    RESIDUAL_BLOCK,
    BaseOperators,
    ImplicitIterate,
    LowRankBilinear,
    gamma_select,
    residual_norm,
)
from transport_nare.transport_problem import balance, make_instance

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


# Measured: 984,888 B above the heap at the call, U_hat being 851,968 B; the
# rest is n-vectors (X^T v, -delta) and small cores.  The bound leaves
# 194,760 B.  Forming V_hat and its product with R^T whole, as residual_norm
# did before it summed over row blocks, took the call to 1,743,837 B.
RESIDUAL_SLACK = 64 * 1024


def test_residual_norm_holds_u_hat_and_one_row_block(peak_during):
    r = 12
    inst = make_instance(N, 0.9, 0.1)
    X = random_triple(N, r, seed=3)
    u_hat = N * (2 * r + 2) * F8
    block = RESIDUAL_BLOCK * F8
    assert peak_during(lambda: residual_norm(inst, X)) <= u_hat + block + RESIDUAL_SLACK


# Measured: 47,288 B (push_update, rank 11 -> 20) and 72,288 B
# (push_symmetric, rank 10 -> 10) above the stacks plus the new factors'
# growth over the old; the slack leaves 83,784 B and 58,784 B.  Holding the
# old factors through the push took the excess to 768,440 B and 370,968 B.
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
    growth = sides * N * (imp.rank - r) * F8
    assert peak <= stacks + max(0, growth) + PUSH_SLACK
