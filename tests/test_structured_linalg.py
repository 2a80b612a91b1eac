"""Shifted solves, fused base operators, implicit iterates, QR/SVD, residuals."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from transport_nare import structured_linalg
from transport_nare.structured_linalg import (
    BaseOperators,
    Correction,
    FlopModel,
    ImplicitIterate,
    LowRankBilinear,
    NearCriticalError,
    ShiftedSolver,
    gamma_select,
    orthonormalize_against,
    residual_norm,
    residual_stacks,
    truncated_svd,
    _StackQR,
)
from transport_nare.sda_ls import SolverConfig, sda_ls_solve
from transport_nare.modified_sda_ls import msda_solve
from transport_nare.transport_problem import (
    TransportParams,
    NareInstance,
    assemble_dense,
    balance,
    gauss_legendre,
    make_instance,
)

SCALAR = make_instance(1, 0.5, 0.0)
X_SCALAR = 3.0 - 2.0 * np.sqrt(2.0)


def base_dense(base, name):
    """Dense image of E0 or F0, read through a level-0 iterate."""
    return ImplicitIterate(getattr(base, name), FlopModel(), 0.0).apply(np.eye(base.n))


def dense_shifted(inst, gamma):
    A, B, C, E = assemble_dense(inst)
    n = inst.n
    Eg = E + gamma * np.eye(n)
    Ag = A + gamma * np.eye(n)
    W = Ag - B @ np.linalg.solve(Eg, C)
    V = Eg - C @ np.linalg.solve(Ag, B)
    return {"E": Eg, "A": Ag, "W": W, "V": V}


# ---------------------------------------------------------------------------
# LowRankBilinear
# ---------------------------------------------------------------------------

def test_low_rank_container_consistency():
    rng = np.random.default_rng(0)
    left, _ = np.linalg.qr(rng.standard_normal((10, 3)))
    right, _ = np.linalg.qr(rng.standard_normal((10, 3)))
    core = np.array([2.0, 1.0, 0.25])
    X = LowRankBilinear(left, core, right)
    D = X.dense()
    assert X.n == 10 and X.rank == 3
    assert abs(X.entry(4, 7) - D[4, 7]) <= 1e-14
    assert abs(X.min_entry() - D.min()) <= 1e-14
    assert X.orthonormality_defect() <= 1e-14
    X.validate()


def test_low_rank_container_validation():
    with pytest.raises(ValueError):
        LowRankBilinear(np.ones((4, 2)), np.ones(3), np.ones((4, 2)))
    with pytest.raises(ValueError):
        LowRankBilinear(np.ones((4, 2)), np.ones(2), np.ones((5, 2)))
    bad = LowRankBilinear(np.ones((4, 1)), np.array([1.0]), np.ones((4, 1)))
    with pytest.raises(ValueError):
        bad.validate()     # all-ones factors are not orthonormal
    increasing = LowRankBilinear(np.eye(4)[:, :2], np.array([1.0, 2.0]), np.eye(4)[:, :2])
    with pytest.raises(ValueError):
        increasing.validate()


def test_low_rank_rank_zero():
    X = LowRankBilinear(np.zeros((5, 0)), np.zeros(0), np.zeros((5, 0)))
    assert X.rank == 0
    np.testing.assert_array_equal(X.dense(), np.zeros((5, 5)))
    assert X.orthonormality_defect() == 0.0


# ---------------------------------------------------------------------------
# flop model
# ---------------------------------------------------------------------------

def test_flop_model_accumulates_by_iteration():
    fm = FlopModel()
    assert fm.snapshot(0) == {}
    fm.add("gemm", 100)
    fm.add("gemm", 50)
    fm.k = 1
    fm.add("gemm", 7)
    fm.add("residual", 3)
    assert fm.snapshot(0) == {"gemm": 150.0}
    assert fm.iteration_total(1) == 10.0
    assert fm.iteration_total(1, exclude=("residual",)) == 7.0
    assert fm.total() == 160.0


def test_flop_model_events():
    fm = FlopModel()
    fm.event("implicit_block_apply")
    fm.event("implicit_block_apply")
    fm.k = 1
    for _ in range(3):
        fm.event("implicit_block_apply")
    assert fm.iteration_events(0, "implicit_block_apply") == 2
    assert fm.iteration_events(1, "implicit_block_apply") == 3
    assert fm.iteration_events(2, "implicit_block_apply") == 0


def test_flop_model_csv(tmp_path):
    fm = FlopModel()
    fm.add("gemm", 12)
    fm.k = 1
    fm.add("svd", 5)
    path = tmp_path / "flops.csv"
    fm.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,kernel,count"
    assert lines[1] == "0,gemm,12"
    assert lines[2] == "1,svd,5"


# ---------------------------------------------------------------------------
# shift selection
# ---------------------------------------------------------------------------

def test_gamma_select_scalar():
    assert gamma_select(SCALAR) == 3.0


def test_gamma_select_matches_dense_diagonals():
    inst = make_instance(8, 0.9, 0.1)
    A, _, _, E = assemble_dense(inst)
    assert gamma_select(inst) == max(np.diag(A).max(), np.diag(E).max())


def test_gamma_select_balanced_equals_original():
    inst = make_instance(13, 0.77, 0.21)
    assert gamma_select(balance(inst)) == gamma_select(inst)


# ---------------------------------------------------------------------------
# shifted Sherman-Morrison solves
# ---------------------------------------------------------------------------

def test_shifted_solver_scalar_values():
    sol = ShiftedSolver(SCALAR, gamma_select(SCALAR))
    one = np.ones((1, 1))
    assert abs(sol.solve("E", one)[0, 0] - 1.0 / 6.0) <= 1e-16
    assert abs(sol.solve("A", one)[0, 0] - 1.0 / 6.0) <= 1e-16
    assert abs(sol.solve("W", one)[0, 0] - 6.0 / 35.0) <= 1e-16
    assert abs(sol.solve("V", one)[0, 0] - 6.0 / 35.0) <= 1e-16


@pytest.mark.parametrize("balanced", [False, True])
def test_shifted_solver_matches_dense(balanced):
    inst = make_instance(16, 0.9, 0.1)
    if balanced:
        inst = balance(inst)
    gamma = gamma_select(inst)
    sol = ShiftedSolver(inst, gamma)
    mats = dense_shifted(inst, gamma)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((16, 4))
    for which in ShiftedSolver.WHICH:
        got = sol.solve(which, X)
        np.testing.assert_allclose(got, np.linalg.solve(mats[which], X),
                                   rtol=1e-11, atol=1e-13)
        gott = sol.solve(which, X, transpose=True)
        np.testing.assert_allclose(gott, np.linalg.solve(mats[which].T, X),
                                   rtol=1e-11, atol=1e-13)
        np.testing.assert_allclose(sol.apply(which, X), mats[which] @ X,
                                   rtol=1e-12, atol=1e-13)


def test_shifted_solver_roundtrip():
    inst = make_instance(16, 0.9, 0.1)
    sol = ShiftedSolver(inst, gamma_select(inst))
    for which in ShiftedSolver.WHICH:
        assert sol.roundtrip_error(which) <= 1e-12


def test_shifted_solver_balanced_is_self_transpose():
    binst = balance(make_instance(12, 0.8, 0.2))
    sol = ShiftedSolver(binst, gamma_select(binst))
    X = np.random.default_rng(1).standard_normal((12, 3))
    for which in ShiftedSolver.WHICH:
        np.testing.assert_array_equal(sol.solve(which, X),
                                      sol.solve(which, X, transpose=True))


_positive = st.floats(0.1, 1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.booleans(), st.data())
def test_shifted_solver_matches_dense_property(n, balanced, data):
    delta = data.draw(hnp.arrays(float, n, elements=st.floats(0.5, 4.0)))
    d = data.draw(hnp.arrays(float, n, elements=st.floats(0.5, 4.0)))
    u = data.draw(hnp.arrays(float, n, elements=_positive))
    v = u if balanced else data.draw(hnp.arrays(float, n, elements=_positive))
    inst = NareInstance(delta=delta, d=d, u=u, v=v,
                        params=TransportParams(0.5, 0.5, n), quad=gauss_legendre(n))
    # gamma >= 4 u^T v keeps every Sherman-Morrison denominator >= 2/3
    gamma = 4.0 * float(u @ v) + data.draw(st.floats(0.0, 2.0))
    sol = ShiftedSolver(inst, gamma)
    mats = dense_shifted(inst, gamma)
    X = data.draw(hnp.arrays(float, (n, 3), elements=st.floats(-1.0, 1.0)))
    for which in ShiftedSolver.WHICH:
        got = sol.solve(which, X)
        gott = sol.solve(which, X, transpose=True)
        for M, y in ((mats[which], got), (mats[which].T, gott)):
            want = np.linalg.solve(M, X)
            err = np.linalg.norm(y - want)
            assert err <= 1e-13 * max(np.linalg.norm(want), 1e-300)
        if balanced:
            np.testing.assert_array_equal(got, gott)


def test_shifted_solver_decoupled_limit():
    # with v = 0 every operator is plain diagonal division
    base = make_instance(4, 0.5, 0.5)
    inst = NareInstance(delta=base.delta, d=base.d, u=np.ones(4), v=np.zeros(4),
                        params=base.params, quad=base.quad)
    sol = ShiftedSolver(inst, 2.0)
    X = np.random.default_rng(2).standard_normal((4, 3))
    np.testing.assert_allclose(sol.solve("E", X), X / (inst.d + 2.0)[:, None],
                               rtol=1e-15)
    np.testing.assert_allclose(sol.solve("W", X), X / (inst.delta + 2.0)[:, None],
                               rtol=1e-15)


def test_shifted_solver_argument_errors():
    sol = ShiftedSolver(SCALAR, 3.0)
    with pytest.raises(ValueError):
        sol.solve("Z", np.ones((1, 1)))
    with pytest.raises(ValueError):
        sol.solve("E", np.ones((2, 1)))


# ---------------------------------------------------------------------------
# level 0 in closed form
# ---------------------------------------------------------------------------

def test_base_operators_scalar_value():
    base = BaseOperators(SCALAR, 3.0)
    one = np.ones((1, 1))
    assert abs(base.apply("E", one)[0, 0] + 1.0 / 35.0) <= 1e-15
    assert abs(base.apply("F", one)[0, 0] + 1.0 / 35.0) <= 1e-15
    assert abs(base_dense(base, "E")[0, 0] + 1.0 / 35.0) <= 1e-15


def test_base_operators_zero_block():
    base = BaseOperators(make_instance(6, 0.9, 0.1), 9.0)
    np.testing.assert_array_equal(base.apply("E", np.zeros((6, 2))),
                                  np.zeros((6, 2)))


@pytest.mark.parametrize("n", [1, 16, 4096])
def test_base_operators_guard_matches_shifted_solver(n):
    # at gamma = 0 the level-0 denominator kappa is 1 - c, zero at c = 1;
    # the closed form and the Sherman-Morrison solves refuse alike
    with pytest.warns(RuntimeWarning):
        critical = make_instance(n, 1.0, 0.0)
    for build in (BaseOperators, ShiftedSolver):
        with pytest.raises(NearCriticalError):
            build(critical, 0.0)
        build(make_instance(n, 0.9, 0.1), 0.0)


@pytest.mark.parametrize("balanced,gamma", [
    pytest.param(b, g, id=str(b) if g is None else "%s-gamma%g" % (b, g))
    for g in (None, 3.0, 7.0, 9.0) for b in (False, True)])
def test_base_operators_match_dense(balanced, gamma):
    # gamma None is the solvers' shift, gamma_select
    inst = make_instance(16, 0.9, 0.1)
    if balanced:
        inst = balance(inst)
    if gamma is None:
        gamma = gamma_select(inst)
    base = BaseOperators(inst, gamma)
    mats = dense_shifted(inst, gamma)
    eye = np.eye(16)
    e0 = eye - 2.0 * gamma * np.linalg.inv(mats["V"])
    f0 = eye - 2.0 * gamma * np.linalg.inv(mats["W"])
    np.testing.assert_allclose(base_dense(base, "E"), e0, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(base_dense(base, "F"), f0, rtol=1e-12, atol=1e-12)
    # the closed form against the Sherman-Morrison solves it replaces
    sol = ShiftedSolver(inst, gamma)
    u, v = inst.u[:, None], inst.v[:, None]
    want = {"E": eye - 2.0 * gamma * sol.solve("V", eye),
            "F": eye - 2.0 * gamma * sol.solve("W", eye),
            "H": 2.0 * gamma * sol.solve("W", u) @ sol.solve("E", u, transpose=True).T,
            "G": 2.0 * gamma * sol.solve("E", v) @ sol.solve("W", v, transpose=True).T}
    got = {"E": base_dense(base, "E"), "F": base_dense(base, "F"),
           "H": LowRankBilinear(*base.H).dense(), "G": LowRankBilinear(*base.G).dense()}
    for name in "EFHG":
        err = np.abs(got[name] - want[name]).max()
        assert err <= 1e-14 * np.abs(want[name]).max(), (name, err)
    X = np.random.default_rng(5).standard_normal((16, 3))
    np.testing.assert_allclose(base.apply("E", X), e0 @ X, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(base.apply("F", X, transpose=True), f0.T @ X,
                               rtol=1e-12, atol=1e-12)
    # level 0 is symmetric exactly when the instance is balanced (u is v)
    for name in "EF":
        imp = ImplicitIterate(getattr(base, name), FlopModel(), 0.0)
        assert (imp.V is imp.U) == balanced


# ---------------------------------------------------------------------------
# implicit doubling iterate
# ---------------------------------------------------------------------------

def make_iterate(levels, symmetric=False, balanced=False, n=16, seed=7):
    """An iterate advanced by random updates, with its dense recursion.

    The updates are scaled so that M <- M^2 + (update) stays of order one over
    six levels.  The symmetric form runs on the balanced instance, where the
    base operator is symmetric, with positive weights like the solver's;
    ``balanced`` runs the general form from that symmetric level 0.
    """
    inst = make_instance(n, 0.9, 0.1)
    if symmetric or balanced:
        inst = balance(inst)
    base = BaseOperators(inst, gamma_select(inst))
    imp = ImplicitIterate(base.E, FlopModel(), 0.0)
    rng = np.random.default_rng(seed)
    M = base_dense(base, "E")
    for _ in range(levels):
        u = 0.3 * rng.standard_normal((n, 2)) / np.sqrt(n)
        if symmetric:
            dup = rng.uniform(0.1, 1.0, 2)
            imp.push_symmetric(u, dup)
            M = M @ M + (u * dup[None, :]) @ u.T
        else:
            v = 0.3 * rng.standard_normal((n, 2)) / np.sqrt(n)
            imp.push_update(Correction(u, np.eye(2), v))
            M = M @ M + u @ v.T
    return imp, M


def test_implicit_level_zero_delegates():
    # a level-0 iterate and BaseOperators.apply, which delegates to it, both
    # apply the operator formed densely from the stored tuple (unbalanced,
    # so V is not U and the transpose differs)
    base = BaseOperators(make_instance(8, 0.5, 0.5), 7.0)
    X = np.random.default_rng(0).standard_normal((8, 3))
    for name in "EF":
        d, U, s, V = getattr(base, name)
        assert V is not U
        M = np.diag(d) + U @ np.diag(s) @ V.T
        imp = ImplicitIterate(getattr(base, name), FlopModel(), 0.0)
        for transpose, want in ((False, M @ X), (True, M.T @ X)):
            for got in (imp.apply(X, transpose=transpose),
                        base.apply(name, X, transpose=transpose)):
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=1e-14 * np.abs(want).max())


def test_implicit_zero_updates_is_repeated_squaring():
    base = BaseOperators(make_instance(8, 0.5, 0.5), 7.0)
    imp = ImplicitIterate(base.E, FlopModel(), 0.0)
    for _ in range(2):
        imp.push_update(Correction(np.zeros((8, 1)), np.eye(1), np.zeros((8, 1))))
    M = base_dense(base, "E")
    M4 = np.linalg.matrix_power(M, 4)
    X = np.random.default_rng(1).standard_normal((8, 2))
    np.testing.assert_allclose(imp.apply(X), M4 @ X, rtol=1e-12, atol=1e-12)


def test_implicit_level2_matches_dense():
    imp, M = make_iterate(2)
    X = np.random.default_rng(11).standard_normal((16, 4))
    scale = np.abs(M @ X).max()
    np.testing.assert_allclose(imp.apply(X), M @ X, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(imp.apply(X, transpose=True), M.T @ X,
                               rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("symmetric,balanced",
                         [(False, False), (True, True), (False, True)],
                         ids=["False", "True", "general_from_symmetric"])
def test_implicit_six_levels_match_dense_recursion(symmetric, balanced):
    imp, M = make_iterate(6, symmetric=symmetric, balanced=balanced)
    assert imp.level == 6
    X = np.random.default_rng(13).standard_normal((16, 3))
    scale = np.abs(M @ X).max()
    np.testing.assert_allclose(imp.apply(X), M @ X, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(imp.apply(X, transpose=True), M.T @ X, rtol=0,
                               atol=1e-12 * scale)


def test_implicit_apply_cost_is_flat_in_level():
    # one block apply costs (1 + 4 r) flops per entry whatever the level:
    # no work grows like 2^k
    imp, _ = make_iterate(6)
    fm = imp.flops
    imp.apply(np.ones((16, 3)))
    assert fm.snapshot(0)["implicit_apply"] == (1 + 4 * imp.rank) * 16 * 3
    assert imp.rank <= 16
    applies = fm.iteration_events(0, "implicit_block_apply")
    imp.apply(np.ones((16, 2)), transpose=True)
    assert fm.iteration_events(0, "implicit_block_apply") == applies + 1


_entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.data())
def test_push_update_matches_dense_property(n, r, l, m, data):
    # a rectangular l x m core between an n x l and an n x m factor
    d = data.draw(hnp.arrays(float, n, elements=_entries))
    U = data.draw(hnp.arrays(float, (n, r), elements=_entries))
    V = data.draw(hnp.arrays(float, (n, r), elements=_entries))
    zl = data.draw(hnp.arrays(float, (n, l), elements=_entries))
    cz = data.draw(hnp.arrays(float, (l, m), elements=_entries))
    zr = data.draw(hnp.arrays(float, (n, m), elements=_entries))
    imp = ImplicitIterate(BaseOperators(make_instance(n, 0.5, 0.5), 7.0).E,
                          FlopModel(), 0.0)
    imp.d, imp.U, imp.s, imp.V = d, U, np.ones(r), V
    E = np.diag(d) + U @ V.T
    want = E @ E + zl @ cz @ zr.T
    imp.push_update(Correction(zl, cz, zr))
    # relative to the size of the summed terms, D and U V^T apart: E itself,
    # and so E @ E, may cancel
    scale = max((np.linalg.norm(d) + np.linalg.norm(U) * np.linalg.norm(V)) ** 2
                + np.linalg.norm(zl @ cz @ zr.T), 1e-300)
    eye = np.eye(n)
    assert np.linalg.norm(imp.apply(eye) - want) <= 1e-12 * scale
    assert np.linalg.norm(imp.apply(eye, transpose=True) - want.T) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from(["random", "in_span", "zero"]), st.data())
def test_push_symmetric_matches_dense_property(n, r, m, kind, data):
    # z inside span(U) and z = 0 make [D U, U, z] rank-deficient, so its QR
    # has zero pivots
    d = data.draw(hnp.arrays(float, n, elements=_entries))
    U, _ = np.linalg.qr(data.draw(hnp.arrays(float, (n, min(r, n)), elements=_entries)))
    s = data.draw(hnp.arrays(float, U.shape[1], elements=_entries))
    dup = data.draw(hnp.arrays(float, m, elements=_entries))
    if kind == "random":
        z = data.draw(hnp.arrays(float, (n, m), elements=_entries))
    elif kind == "in_span":
        z = U @ data.draw(hnp.arrays(float, (U.shape[1], m), elements=_entries))
    else:
        z = np.zeros((n, m))
    imp = ImplicitIterate(BaseOperators(make_instance(n, 0.5, 0.5), 7.0).E,
                          FlopModel(), 0.0)
    imp.d, imp.U, imp.s, imp.V = d, U, s, U
    E = np.diag(d) + (U * s[None, :]) @ U.T
    Z = (z * dup[None, :]) @ z.T
    want = E @ E + Z
    imp.push_symmetric(z, dup)
    scale = max((np.linalg.norm(d) + np.linalg.norm(s)) ** 2 + np.linalg.norm(Z), 1e-300)
    assert np.linalg.norm(imp.apply(np.eye(n)) - want) <= 1e-12 * scale
    # the next level relies on U^T U = I
    assert np.abs(imp.U.T @ imp.U - np.eye(imp.rank)).max(initial=0.0) <= 1e-13


def test_push_symmetric_needs_a_symmetric_iterate():
    imp, _ = make_iterate(1)
    with pytest.raises(ValueError):
        imp.push_symmetric(np.ones((16, 1)), np.ones(1))
    # push_update advances a symmetric iterate in general form, which
    # push_symmetric then refuses
    sym, M = make_iterate(1, symmetric=True)
    zl, zr = np.full((16, 1), 0.1), np.linspace(-0.1, 0.1, 16)[:, None]
    sym.push_update(Correction(zl, np.eye(1), zr))
    assert sym.V is not sym.U
    want = M @ M + zl @ zr.T
    assert np.linalg.norm(sym.apply(np.eye(16)) - want) <= 1e-12 * np.linalg.norm(want)
    with pytest.raises(ValueError):
        sym.push_symmetric(np.ones((16, 1)), np.ones(1))


def test_push_symmetric_rejects_a_nonsymmetric_base():
    # unbalanced, p w^T is not symmetric; reading it as (p.w) w w^T / (w.w)
    # would return an operator off by 2.2e-2 (norm 8.5) without an error
    z = np.random.default_rng(3).standard_normal((8, 2))
    dup = np.array([0.5, 0.2])
    inst = make_instance(8, 0.5, 0.5)
    imp = ImplicitIterate(BaseOperators(inst, gamma_select(inst)).E, FlopModel(), 0.0)
    with pytest.raises(ValueError):
        imp.push_symmetric(z, dup)
    inst = balance(inst)
    base = BaseOperators(inst, gamma_select(inst))
    imp = ImplicitIterate(base.E, FlopModel(), 0.0)
    imp.push_symmetric(z, dup)
    M = base_dense(base, "E")
    want = M @ M + (z * dup[None, :]) @ z.T
    assert np.linalg.norm(imp.apply(np.eye(8)) - want) <= 1e-13 * np.linalg.norm(want)


def test_push_update_and_push_symmetric_agree():
    # one kernel: the general push fed the symmetric update z diag(dup) z^T
    # tracks the symmetric push level by level
    n = 16
    inst = balance(make_instance(n, 0.9, 0.1))
    base = BaseOperators(inst, gamma_select(inst))
    gen = ImplicitIterate(base.E, FlopModel(), 0.0)
    sym = ImplicitIterate(base.E, FlopModel(), 0.0)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((n, 3))
    for _ in range(6):
        z = 0.3 * rng.standard_normal((n, 2)) / np.sqrt(n)
        dup = rng.uniform(0.1, 1.0, 2)
        gen.push_update(Correction(z, np.diag(dup), z))
        sym.push_symmetric(z, dup)
        scale = np.abs(sym.apply(X)).max()
        assert np.abs(gen.apply(X) - sym.apply(X)).max() <= 1e-12 * scale
    assert sym.V is sym.U and gen.V is not gen.U


#: trunc_rel of the screened-push checks: far above roundoff, so what the
#: screen and the keep rule drop sets the error
SCREEN_TRUNC = 1e-6


def screened_push(imp, symmetric, seed, l=6, m=8):
    """Screen and push an update shaped like a doubling step's, E_k (E_k^T)
    times orthonormal columns around a core whose weights fall 1e-2 per row
    and column; returns the dense E_k^2 + update, max|d_{k+1}|, and the
    core's kept and full row and column counts (one count if diagonal)."""
    n = imp.n
    rng = np.random.default_rng(seed)
    Ek = imp.apply(np.eye(n))
    d_next = np.abs(imp.d).max() ** 2
    Q1 = np.linalg.qr(rng.standard_normal((n, l)))[0]
    Q2 = np.linalg.qr(rng.standard_normal((n, m)))[0]
    decay = 10.0 ** (-2.0 * np.arange(max(l, m)))
    if symmetric:
        core = rng.uniform(0.5, 1.0, m) * decay[:m]
        z = imp.apply(Q2)
        keep = imp.screen(core)
        want = Ek @ Ek + (z * core) @ z.T
        imp.push_symmetric(z[:, :keep], core[:keep])
        return want, d_next, (keep,), (m,)
    core = rng.uniform(-1.0, 1.0, (l, m)) * decay[:l, None] * decay[None, :m]
    zl, zr = imp.apply(Q1), imp.apply(Q2, transpose=True)
    a, b = imp.screen(core)
    want = Ek @ Ek + zl @ core @ zr.T
    imp.push_update(Correction(zl[:, :a], core[:a, :b], zr[:, :b]))
    return want, d_next, (a, b), (l, m)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("symmetric", [False, True], ids=["push_update", "push_symmetric"])
def test_screened_push_matches_dense(symmetric, seed):
    # the screen leaves out at most tau = trunc_rel max|d_{k+1}| of the
    # update and the keep rule drops values below trunc_rel max(max|d_{k+1}|,
    # the largest), so E_{k+1} is within 2 trunc_rel (max|d_{k+1}| +
    # ||correction||) of the dense result in the 2-norm (c = 2)
    imp, _ = make_iterate(2, symmetric=symmetric)
    imp.trunc_rel = SCREEN_TRUNC
    r = imp.rank
    want, d_next, kept, full = screened_push(imp, symmetric, seed)
    assert kept[-1] < full[-1], kept
    correction = np.linalg.norm(want - np.diag(imp.d), 2)
    err = np.linalg.norm(imp.apply(np.eye(imp.n)) - want, 2)
    assert err <= 2.0 * SCREEN_TRUNC * (d_next + correction), err
    # measured 0.11 to 0.25 of the bound; the keep rule dropped values too,
    # where trunc_rel = 0 keeps min(n, 2 r + the kept columns)
    assert imp.rank < min(imp.n, 2 * r + kept[-1])
    if symmetric:
        assert imp.V is imp.U
        assert np.abs(imp.U.T @ imp.U - np.eye(imp.rank)).max() <= 1e-13


@pytest.mark.parametrize("symmetric", [False, True], ids=["push_update", "push_symmetric"])
def test_screened_push_of_a_rank_zero_correction(symmetric):
    # E_k = diag(d_k) alone: the norm bound max|d_k| + max|s_k| takes no max
    # of an empty core, and the screened push still matches the dense result
    imp, _ = make_iterate(1, symmetric=symmetric)
    imp.trunc_rel = SCREEN_TRUNC
    imp.U = imp.V = np.zeros((imp.n, 0))
    imp.s = np.zeros(0)
    want, d_next, _, _ = screened_push(imp, symmetric, seed=3)
    correction = np.linalg.norm(want - np.diag(imp.d), 2)
    err = np.linalg.norm(imp.apply(np.eye(imp.n)) - want, 2)
    assert err <= 2.0 * SCREEN_TRUNC * (d_next + correction), err


@pytest.mark.parametrize("trunc_rel", [0.0, 1e-15])
@pytest.mark.parametrize("symmetric", [False, True], ids=["push_update", "push_symmetric"])
def test_screened_push_of_a_zero_iterate(symmetric, trunc_rel):
    # ||E_k|| bounded by 0: every update E_k Z is 0.  The screen keeps all of
    # it at trunc_rel = 0 and none of it above; either push gives E = 0
    n = 8
    imp = ImplicitIterate(BaseOperators(make_instance(n, 0.5, 0.5), 7.0).E,
                          FlopModel(), trunc_rel)
    imp.d, imp.s = np.zeros(n), np.zeros(0)
    imp.U = imp.V = np.zeros((n, 0))
    kept = 3 if trunc_rel == 0.0 else 0
    assert imp.screen(np.ones(3)) == kept
    assert imp.screen(np.ones((2, 3))) == ((2, 3) if trunc_rel == 0.0 else (0, 0))
    z = imp.apply(np.eye(n)[:, :3])
    if symmetric:
        imp.push_symmetric(z[:, :kept], np.ones(kept))
    else:
        imp.push_update(Correction(z[:, :kept], np.ones((kept, kept)), z[:, :kept]))
    assert imp.rank == 0
    assert not imp.apply(np.eye(n)).any()


def test_keep_rule_reference_is_inert_at_trunc_rel_zero():
    # at trunc_rel = 0 every nonzero value is kept, whatever the reference
    mag = np.array([3.0, 1e-300, 0.0, 2e-17])
    for ref in (0.0, 1.0, 1e300):
        assert np.array_equal(structured_linalg._kept(mag, 0.0, ref), mag > 0.0)
    # above it the larger of ref and the largest value sets the threshold:
    # 2e-17 alone is kept against itself and dropped against ref = 1
    assert structured_linalg._kept(mag, 1e-15, 0.0).tolist() == [True, False, False, False]
    assert structured_linalg._kept(np.array([2e-17]), 1e-15, 0.0).tolist() == [True]
    assert structured_linalg._kept(np.array([2e-17]), 1e-15, 1.0).tolist() == [False]


@pytest.mark.parametrize("symmetric,per_level", [(False, 2), (True, 1)],
                         ids=["push_update", "push_symmetric"])
def test_push_stack_qr_count(monkeypatch, symmetric, per_level):
    # the balanced symmetry halves the outer-iterate QRs: one stack, not two
    calls = []

    def counted(a):
        calls.append(a.shape)
        return _StackQR(a)

    monkeypatch.setattr(structured_linalg, "_StackQR", counted)
    make_iterate(4, symmetric=symmetric)
    assert len(calls) == 4 * per_level


def test_implicit_update_shape_check():
    imp = ImplicitIterate(BaseOperators(make_instance(8, 0.5, 0.5), 7.0).E,
                          FlopModel(), 0.0)
    with pytest.raises(ValueError):
        imp.push_update(Correction(np.ones((8, 2)), np.eye(2), np.ones((8, 3))))
    with pytest.raises(ValueError):
        imp.push_update(Correction(np.ones((7, 2)), np.eye(2), np.ones((8, 2))))
    with pytest.raises(ValueError):
        imp.push_update(Correction(np.ones((8, 2)), np.ones((3, 2)), np.ones((8, 3))))


# ---------------------------------------------------------------------------
# in-place QR kernel
# ---------------------------------------------------------------------------

def qr_stacks():
    """Tall, square, wide (n < w at n = 1..3) and rank-deficient stacks, and
    stacks on both sides of dgeqrt's block size: widths nb - 1 to 2 nb + 1,
    n < nb, and the 1 x 3 push_update stack of the n = 1 instance."""
    rng = np.random.default_rng(21)
    a = rng.standard_normal((40, 3))
    nb = structured_linalg._QRT_NB
    stacks = {"tall": [rng.standard_normal((50, 4)), rng.standard_normal((50, 3))],
              "blocked": [rng.standard_normal((300, 140))],   # past dgeqrf's crossover
              "square": [rng.standard_normal((6, 2)), rng.standard_normal((6, 4))],
              "deficient": [a, 2.0 * a[:, :1] - a[:, 2:], np.zeros((40, 1)), a[:, ::-1]],
              "n1w3": [rng.standard_normal((1, 2)), rng.standard_normal((1, 1))],
              "n%dw%d" % (nb - 3, 2 * nb): [rng.standard_normal((nb - 3, 2 * nb))]}
    for n in (1, 2, 3):
        stacks["wide%d" % n] = [rng.standard_normal((n, 2)), rng.standard_normal((n, 2))]
    for w in (nb - 1, nb, nb + 1, 2 * nb + 1):
        stacks["w%d" % w] = [rng.standard_normal((60, w - 1)), rng.standard_normal((60, 1))]
    return stacks


QR_STACKS = qr_stacks()


def fortran_stack(blocks):
    """The blocks written into one Fortran-ordered array, as _StackQR takes them."""
    return np.asfortranarray(np.hstack(blocks))


# Measured on QR_STACKS: dgeqrt's R is within 3.7e-16 of scipy's (dgeqrf's),
# relative to its largest entry, and its Q R within 1.1e-15 of the stack,
# relative to the stack's; the bounds leave 5x and 9x.
PLAIN_R_BOUND = 2e-15
PLAIN_QR_BOUND = 1e-14
# On stacks scaled by 1e-100 to 1e-300, dgeqrt rescales its reflectors and
# its R moves up to 5.0e-15 from scipy's (on n5w16; the others stay within
# 1e-15); Q R and Q^T Q keep the plain bounds.  The bound leaves 4x.
TINY_R_BOUND = 2e-14


# "pivoted" checks R against scipy's column-pivoted QR, A P = Qp Rp: R P =
# (Q^T Qp) Rp, and R carries the singular values and numerical rank that
# Rp's diagonal reveals, which the small core's truncated SVD reads in place
# of a pivoted QR.  Measured on QR_STACKS: 8.6e-16 and 1.5e-15 relative; the
# bound leaves 6x.
PIVOTED_BOUND = 1e-14


# "tiny" scales each stack to where the squares of its entries underflow:
# R scales with it and Q does not change
@pytest.mark.parametrize("against", ["plain", "pivoted", "tiny"])
@pytest.mark.parametrize("name", list(QR_STACKS))
def test_stack_qr_matches_scipy(name, against):
    scale = 1e-200 if against == "tiny" else 1.0
    stack = scale * np.hstack(QR_STACKS[name])
    n, w = stack.shape
    k = min(n, w)
    F = _StackQR(fortran_stack([stack]))
    Q = F.q_times(np.eye(k))
    if against == "pivoted":
        Qp, Rp, piv = sla.qr(stack, mode="economic", pivoting=True)
        R = F.r()
        assert np.abs(R[:, piv] - Q.T @ Qp @ Rp).max() <= PIVOTED_BOUND * np.abs(R).max()
        s, sp = sla.svdvals(R), sla.svdvals(Rp)
        assert np.abs(s - sp).max() <= PIVOTED_BOUND * sp[0], name
        d = np.abs(np.diag(Rp))
        assert (s > 1e-12 * s[0]).sum() == (d > 1e-12 * d[0]).sum(), name
    else:
        _, R = sla.qr(np.hstack(QR_STACKS[name]), mode="economic")
        r_bound = PLAIN_R_BOUND if scale == 1.0 else TINY_R_BOUND
        assert np.abs(F.r() / scale - R).max() <= r_bound * np.abs(R).max(), name
    assert np.abs(Q @ F.r() - stack).max() <= PLAIN_QR_BOUND * np.abs(stack).max(), name
    assert np.abs(Q.T @ Q - np.eye(k)).max() <= 1e-14, name
    C = np.random.default_rng(22).standard_normal((k, 3))
    assert np.abs(F.q_times(C) - Q @ C).max() <= 1e-14 * np.abs(C).sum(axis=0).max()
    assert F.q_times(C[:, :0]).shape == (n, 0)


@pytest.mark.parametrize("routine", ["dgeqrt", "dgemqrt"])
def test_stack_qr_factors_its_own_stack_in_place(routine, monkeypatch):
    # dgeqrt overwrites the caller's stack, dgemqrt the array q_times returns
    seen = []
    real = getattr(structured_linalg.lapack, routine)

    def spy(*args, **kwargs):
        seen.append(args[-1])
        return real(*args, **kwargs)

    monkeypatch.setattr(structured_linalg.lapack, routine, spy)
    stack = fortran_stack([np.ones((30, 2)), np.arange(30.0)[:, None]])
    F = _StackQR(stack)
    if routine == "dgeqrt":
        assert len(seen) == 1 and seen[0] is stack
        assert np.shares_memory(F.a, stack)
    else:
        out = F.q_times(np.eye(3, 2))
        assert len(seen) == 1 and seen[0] is out


def test_stack_qr_takes_fortran_ordered_stacks_only():
    with pytest.raises(ValueError, match="Fortran-ordered"):
        _StackQR(np.ones((5, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("build", ["plain", "extension"])
def test_stack_qr_rejects_non_finite_stacks(bad, build):
    # a stack handed to the kernel, and one written by the basis extension
    block = np.ones((5, 3))
    block[2, 1] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        if build == "plain":
            _StackQR(fortran_stack([np.eye(5, 2), block]))
        else:
            orthonormalize_against(np.eye(5, 2), block, FlopModel())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape,at", [((20, 3), (19, 0)), ((20, 3), (10, 2)),
                                      ((3, 6), (1, 5))],
                         ids=["last-row-first-column", "below-diagonal-last-column",
                              "column-past-n"])
def test_stack_qr_finds_non_finite_entries_after_factoring(bad, shape, at):
    # the kernel checks only the factored top min(n, w) rows: an entry below
    # them must reach R through its column's reflector or the reflector
    # products, and a column past n lies in those rows whole
    stack = np.asfortranarray(np.random.default_rng(4).standard_normal(shape))
    stack[at] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        _StackQR(stack)


def test_stack_qr_reports_illegal_arguments(monkeypatch):
    lapack = structured_linalg.lapack
    F = _StackQR(fortran_stack([np.eye(3)]))
    monkeypatch.setattr(lapack, "dgeqrt", lambda nb, a, **kw: (a, None, -4))
    monkeypatch.setattr(lapack, "dgemqrt", lambda v, t, c, **kw: (c, -3))
    with pytest.raises(ValueError, match="4-th argument"):
        _StackQR(fortran_stack([np.eye(3)]))
    with pytest.raises(ValueError, match="3-th argument"):
        F.q_times(np.eye(3))


# ---------------------------------------------------------------------------
# basis extension
# ---------------------------------------------------------------------------

def random_basis(n, k, seed):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, k)))
    return Q


def check_extension(Q, Z):
    """Factor [Q, Z] by orthonormalize_against; check Qf R = [Q, Z], each
    column of Z to its own size, and Qf^T Qf = I to 1e-14.  Returns Qf, R."""
    n, m = Q.shape
    F = orthonormalize_against(Q, Z, FlopModel())
    k = min(n, m + Z.shape[1])
    Qf, R = F.q_times(np.eye(k)), F.r()
    assert Qf.shape == (n, k) and R.shape == (k, m + Z.shape[1])
    assert np.abs(Qf.T @ Qf - np.eye(k)).max(initial=0.0) <= 1e-14
    assert np.abs(Qf @ R[:, :m] - Q).max(initial=0.0) <= 1e-14
    err = np.abs(Qf @ R[:, m:] - Z).max(axis=0, initial=0.0)
    assert np.all(err <= 1e-14 * np.abs(Z).max(axis=0, initial=0.0)), err
    return Qf, R


def test_orthonormalize_reconstructs():
    Q = random_basis(20, 5, 0)
    Qf, R = check_extension(Q, np.random.default_rng(1).standard_normal((20, 4)))
    # Qf's leading columns span Q, and R's leading block is its basis change
    assert np.abs(np.abs(R[:5, :5]) - np.eye(5)).max() <= 1e-14
    assert np.abs(R[5:, :5]).max() == 0.0


def in_span_rank(R, m, scale):
    """Rank that the default truncated SVD keeps of R, with Z's columns
    (R[:, m:]) taken back to unit size: what in-span content of Z adds."""
    Rs = R.copy()
    Rs[:, m:] /= scale
    return truncated_svd(Rs, SolverConfig().trunc_rel, FlopModel())[1].size


def test_orthonormalize_in_span_content_gets_roundoff_rows():
    # in-span content of Z lands in the rows of Q and its new rows are
    # roundoff, so the core's truncated SVD drops it
    Q = random_basis(20, 5, 2)
    Z = Q @ np.random.default_rng(3).standard_normal((5, 3))
    _, R = check_extension(Q, Z)
    assert np.abs(R[5:, 5:]).max() <= 1e-14 * np.abs(Z).max()
    assert in_span_rank(R, 5, 1.0) == 5


def test_orthonormalize_tiny_in_span_content_gets_roundoff_rows():
    # each column is judged at its own size, also where its squares underflow
    Q = random_basis(20, 5, 2)
    Z = Q @ np.random.default_rng(3).standard_normal((5, 3))
    for scale in (1e-100, 1e-200):
        _, R = check_extension(Q, scale * Z)
        assert np.abs(R[5:, 5:]).max() <= 1e-14 * scale * np.abs(Z).max(), scale
        assert in_span_rank(R, 5, scale) == 5, scale


def test_orthonormalize_near_span_noise_stays_orthonormal():
    # directions barely off span(Q) must not spoil the basis; with n < m + w
    # all n directions are taken
    Q = random_basis(24, 20, 12)
    rng = np.random.default_rng(13)
    Z = Q @ rng.standard_normal((20, 8)) + 1e-13 * rng.standard_normal((24, 8))
    Qf, _ = check_extension(Q, Z)
    assert Qf.shape == (24, 24)


def test_orthonormalize_basis_never_exceeds_n():
    # never grow past dimension n
    Qf, _ = check_extension(random_basis(8, 8, 7),
                            np.random.default_rng(8).standard_normal((8, 3)))
    assert Qf.shape == (8, 8)


def test_orthonormalize_deterministic():
    Q = random_basis(16, 4, 9)
    Z = np.random.default_rng(10).standard_normal((16, 5))
    first = orthonormalize_against(Q, Z, FlopModel())
    second = orthonormalize_against(Q, Z, FlopModel())
    np.testing.assert_array_equal(first.a, second.a)
    np.testing.assert_array_equal(first.t, second.t)


def test_orthonormalize_empty_inputs():
    Qf, _ = check_extension(np.zeros((10, 0)),
                            np.random.default_rng(14).standard_normal((10, 3)))
    assert Qf.shape == (10, 3)
    Qf, _ = check_extension(random_basis(10, 2, 15), np.zeros((10, 0)))
    assert Qf.shape == (10, 2)
    Qf, R = check_extension(random_basis(10, 2, 16), np.zeros((10, 2)))
    assert Qf.shape == (10, 4) and not R[:, 2:].any()


# ---------------------------------------------------------------------------
# truncated SVD
# ---------------------------------------------------------------------------

def test_truncated_svd_reconstruction_and_order():
    M = np.random.default_rng(0).standard_normal((6, 4))
    U, s, V = truncated_svd(M, 0.0, FlopModel())
    assert np.all(s > 0) and np.all(np.diff(s) <= 0)
    np.testing.assert_allclose(U @ (s[:, None] * V.T), M, rtol=0, atol=1e-13)


def test_truncated_svd_drops_exact_zeros():
    M = np.diag([3.0, 0.0, 0.0])
    U, s, V = truncated_svd(M, 0.0, FlopModel())
    assert s.tolist() == [3.0]
    assert U.shape == (3, 1)


def test_truncated_svd_threshold_is_inclusive():
    _, s, _ = truncated_svd(np.diag([1.0, 1e-6]), 1e-6, FlopModel())
    assert s.size == 2
    _, s, _ = truncated_svd(np.diag([1.0, 0.99e-6]), 1e-6, FlopModel())
    assert s.tolist() == [1.0]


def test_truncated_svd_empty():
    U, s, V = truncated_svd(np.zeros((3, 0)), 0.0, FlopModel())
    assert U.shape == (3, 0) and s.size == 0
    U, s, V = truncated_svd(np.zeros((2, 2)), 0.0, FlopModel())
    assert s.size == 0


# ---------------------------------------------------------------------------
# factored residual
# ---------------------------------------------------------------------------

def rank_r_candidate(n, r, seed):
    rng = np.random.default_rng(seed)
    left, _ = np.linalg.qr(rng.standard_normal((n, r)))
    right, _ = np.linalg.qr(rng.standard_normal((n, r)))
    core = np.sort(rng.uniform(0.1, 1.0, size=r))[::-1]
    return LowRankBilinear(left, core, right)


def dense_residual_norm(inst, Xd):
    A, B, C, E = assemble_dense(inst)
    return np.linalg.norm(Xd @ C @ Xd - Xd @ E - A @ Xd + B)


def test_residual_of_zero_solution():
    inst = make_instance(12, 0.8, 0.2)
    X = LowRankBilinear(np.zeros((12, 0)), np.zeros(0), np.zeros((12, 0)))
    absnorm, rel = residual_norm(inst, X, FlopModel())
    assert abs(absnorm - 12.0) <= 1e-12
    assert abs(rel - 1.0) <= 1e-13


def test_residual_scalar_solution():
    X = LowRankBilinear(np.ones((1, 1)), np.array([X_SCALAR]), np.ones((1, 1)))
    _, rel = residual_norm(SCALAR, X, FlopModel())
    assert rel <= 1e-14


@pytest.mark.parametrize("balanced", [False, True])
def test_residual_matches_dense(balanced):
    inst = make_instance(16, 0.9, 0.1)
    if balanced:
        inst = balance(inst)
    X = rank_r_candidate(16, 2, seed=3)
    absnorm, rel = residual_norm(inst, X, FlopModel())
    expect = dense_residual_norm(inst, X.dense())
    assert abs(absnorm - expect) <= 1e-12 * max(1.0, expect)


@pytest.mark.parametrize("n,r,seed", [(8, 1, 0), (32, 7, 1), (64, 20, 2)])
def test_residual_matches_dense_sweep(n, r, seed):
    inst = make_instance(n, 0.7, 0.3)
    X = rank_r_candidate(n, r, seed)
    absnorm, _ = residual_norm(inst, X, FlopModel())
    expect = dense_residual_norm(inst, X.dense())
    assert abs(absnorm - expect) <= 1e-11 * max(1.0, expect)


def two_qr_residual_norm(inst, X):
    """Reference formula: R factors of both stacks, norm of R_u R_v^T."""
    U_hat, v_rows = residual_stacks(inst, X)
    V_hat = v_rows(0, inst.n)
    _, ru = np.linalg.qr(U_hat)
    _, rv = np.linalg.qr(V_hat)
    return float(np.linalg.norm(ru @ rv.T))


# Measured at 1 BLAS thread, one QR against two on these converged X: at most
# 1.1e-3 relative at n = 64 (a roundoff-floor residual near 2e-13; factoring V
# instead of U first moves the two-QR value by up to 7e-4 there) and 5.0e-6
# at n = 512, with stacks 2r + 1 wide (1.0e-3 and 5.3e-6 at 2r + 2).  The
# bounds leave 4.4x and 10x.  The Gram product misses the two-QR value by
# 700x or more on every case.
ONE_QR_BOUND = {64: 5e-3, 512: 5e-5}


@pytest.mark.parametrize("solve", [sda_ls_solve, msda_solve], ids=["sda-ls", "msda"])
@pytest.mark.parametrize("n,c,alpha", [(64, 0.5, 0.5), (64, 0.9, 0.1),
                                       (64, 0.999, 0.001), (512, 0.9, 0.1)])
def test_residual_one_qr_matches_two_qr_on_solutions(solve, n, c, alpha):
    inst = make_instance(n, c, alpha)
    X, _ = solve(inst)
    absnorm, _ = residual_norm(inst, X, FlopModel())
    expect = two_qr_residual_norm(inst, X)
    assert abs(absnorm - expect) <= ONE_QR_BOUND[n] * expect


def test_residual_dimension_mismatch():
    X = rank_r_candidate(8, 2, 0)
    with pytest.raises(ValueError):
        residual_norm(make_instance(9, 0.5, 0.5), X, FlopModel())
