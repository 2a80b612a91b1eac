"""Dense doubling oracle: frozen scalar values, structure, and diagnostics."""

import warnings

import numpy as np
import pytest

from transport_nare.dense_sda import (
    SPECTRAL_MAX_N,
    dense_residual,
    dense_sda_init,
    dense_sda_solve,
    dense_sda_step,
    spectral_check,
)
from transport_nare.sda_ls import SolverConfig
from transport_nare.structured_linalg import gamma_select
from transport_nare.transport_problem import (
    DENSE_CAP,
    assemble_dense,
    balance,
    make_instance,
)

SCALAR = make_instance(1, 0.5, 0.0)
X_SCALAR = 3.0 - 2.0 * np.sqrt(2.0)


def scalar_state():
    A, B, C, E = assemble_dense(SCALAR)
    return dense_sda_init(A, B, C, E, 3.0)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_scalar_values():
    st = scalar_state()
    assert abs(st.E[0, 0] + 1.0 / 35.0) <= 1e-15
    assert abs(st.F[0, 0] + 1.0 / 35.0) <= 1e-15
    assert abs(st.G[0, 0] - 6.0 / 35.0) <= 1e-15
    assert abs(st.H[0, 0] - 6.0 / 35.0) <= 1e-15


def test_init_decoupled_quadruple():
    # B = C = 0 decouples the recursion: H0 = G0 = 0 and E0 is a resolvent
    rng = np.random.default_rng(0)
    n = 5
    A = np.diag(rng.uniform(1.0, 2.0, n))
    E = np.diag(rng.uniform(2.0, 3.0, n))
    Z = np.zeros((n, n))
    gamma = 3.0
    st = dense_sda_init(A, Z, Z, E, gamma)
    np.testing.assert_array_equal(st.H, Z)
    np.testing.assert_array_equal(st.G, Z)
    eye = np.eye(n)
    np.testing.assert_allclose(st.E, eye - 2 * gamma * np.linalg.inv(E + gamma * eye),
                               rtol=1e-13)
    np.testing.assert_allclose(st.F, eye - 2 * gamma * np.linalg.inv(A + gamma * eye),
                               rtol=1e-13)


def test_init_balanced_is_symmetric():
    binst = balance(make_instance(4, 0.9, 0.1))
    A, B, C, E = assemble_dense(binst)
    st = dense_sda_init(A, B, C, E, gamma_select(binst))
    np.testing.assert_allclose(st.H, st.G.T, rtol=0, atol=1e-14)
    np.testing.assert_allclose(st.E, st.E.T, rtol=0, atol=1e-14)
    np.testing.assert_allclose(st.F, st.F.T, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_step_scalar_frozen_value():
    st = dense_sda_step(scalar_state())
    assert st.k == 1
    assert abs(st.H[0, 0] - 204.0 / 1189.0) <= 1e-14


def test_step_with_zero_coupling_is_squaring():
    st = scalar_state()
    st = dense_sda_step(st)
    E1, F1 = st.E.copy(), st.F.copy()
    st.G = np.zeros((1, 1))
    st.H = np.zeros((1, 1))
    dense_sda_step(st)
    np.testing.assert_allclose(st.E, E1 @ E1, rtol=1e-14)
    np.testing.assert_allclose(st.F, F1 @ F1, rtol=1e-14)
    np.testing.assert_array_equal(st.G, np.zeros((1, 1)))
    np.testing.assert_array_equal(st.H, np.zeros((1, 1)))


def test_step_norm_inequality():
    inst = make_instance(8, 0.9, 0.1)
    A, B, C, E = assemble_dense(inst)
    st = dense_sda_init(A, B, C, E, gamma_select(inst))
    eye = np.eye(8)
    for _ in range(6):
        e_prev = np.linalg.norm(st.E)
        bound = e_prev ** 2 * np.linalg.norm(
            np.linalg.inv(eye - st.G @ st.H), ord=2)
        dense_sda_step(st)
        assert np.linalg.norm(st.E) <= bound * (1 + 1e-12)


def test_balanced_iterates_stay_symmetric():
    binst = balance(make_instance(16, 0.9, 0.1))
    A, B, C, E = assemble_dense(binst)
    st = dense_sda_init(A, B, C, E, gamma_select(binst))
    for _ in range(10):
        dense_sda_step(st)
        assert np.linalg.norm(st.H - st.G.T) <= 1e-12 * np.linalg.norm(st.H)
        assert np.linalg.norm(st.E - st.E.T) <= 1e-12 * max(1e-30, np.linalg.norm(st.E))
        assert np.linalg.norm(st.F - st.F.T) <= 1e-12 * max(1e-30, np.linalg.norm(st.F))


# ---------------------------------------------------------------------------
# full solve
# ---------------------------------------------------------------------------

def test_solve_scalar():
    X, Y, rep = dense_sda_solve(SCALAR)
    assert rep.termination == "converged"
    assert rep.iterations <= 6
    assert abs(X[0, 0] - X_SCALAR) <= 1e-12
    # the scalar equation is self-dual, so the dual iterate matches
    assert abs(Y[0, 0] - X[0, 0]) <= 1e-14


def test_solve_n32_properties():
    inst = make_instance(32, 0.9, 0.1)
    X, Y, rep = dense_sda_solve(inst)
    A, B, C, E = assemble_dense(inst)
    assert rep.termination == "converged"
    assert rep.final_residual <= 1e-12
    assert dense_residual(A, B, C, E, X) <= 1e-11
    assert X.min() >= -1e-12
    assert Y.min() >= -1e-12
    assert rep.extras["dual_residual"] <= 1e-11
    assert rep.extras["min_entry_x"] == X.min()


def test_solve_report_shapes():
    _, _, rep = dense_sda_solve(make_instance(8, 0.5, 0.5))
    assert rep.algorithm == "dense-sda"
    assert rep.rank_history == [(8, 8)] * (rep.iterations + 1)
    assert rep.gamma == gamma_select(make_instance(8, 0.5, 0.5))


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("c,alpha", [(0.5, 0.5), (0.9, 0.1), (0.999, 0.001)])
def test_doubling_matrices_decay(n, c, alpha):
    # push past residual convergence (tiny tol) to see the operator decay
    inst = make_instance(n, c, alpha)
    cfg = SolverConfig(tol_residual=1e-100, max_iter=40)
    _, _, rep = dense_sda_solve(inst, config=cfg)
    for seq in (rep.extras["e_norms"], rep.extras["f_norms"]):
        assert all(b <= a for a, b in zip(seq, seq[1:]))
        assert min(seq) < 1e-12


def test_solve_rejects_large_n():
    inst = make_instance(DENSE_CAP + 1, 0.5, 0.5)
    with pytest.raises(ValueError):
        dense_sda_solve(inst)


def test_solve_near_critical_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst = make_instance(4, 1.0, 0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, _, rep = dense_sda_solve(inst)
    # one warning per solve, attributed to the line that called the solver
    assert [w.category for w in caught] == [RuntimeWarning]
    assert caught[0].filename == __file__
    assert rep.warnings == ["near-critical parameters (c=1, alpha=0)"]


# ---------------------------------------------------------------------------
# spectral diagnostics
# ---------------------------------------------------------------------------

def test_spectral_scalar_frozen():
    rep = spectral_check(SCALAR)
    two_rt2 = 2.0 * np.sqrt(2.0)
    np.testing.assert_allclose(rep.h_eigenvalues, [two_rt2, -two_rt2], atol=1e-12)
    np.testing.assert_allclose(rep.mirrored, [two_rt2, two_rt2], atol=1e-12)


def test_spectral_sorting():
    rep = spectral_check(make_instance(8, 0.5, 0.5))
    assert rep.n == 8
    assert rep.h_eigenvalues.shape == rep.mirrored.shape == (16,)
    for vals in (rep.h_eigenvalues, rep.mirrored):
        real = vals.real
        assert all(b <= a + 1e-12 for a, b in zip(real, real[1:]))


def test_spectral_size_limit():
    assert SPECTRAL_MAX_N == 64
    with pytest.raises(ValueError):
        spectral_check(make_instance(65, 0.5, 0.5))
