"""Balanced symmetry-exploiting solver and its symmetry audit."""

import dataclasses
import json

import numpy as np
import pytest

from transport_nare import modified_sda_ls
from transport_nare.dense_sda import dense_sda_init, dense_sda_solve, dense_sda_step
from transport_nare.modified_sda_ls import (
    AUDIT_MAX_N,
    CoreSingularError,
    audit_symmetry,
    msda_init,
    msda_solve,
    msda_step,
)
from transport_nare.sda_ls import (
    LowRankState,
    SolverConfig,
    sda_ls_solve,
    sda_ls_step,
    step_cores,
)
from transport_nare.structured_linalg import (
    LowRankBilinear,
    ShiftedSolver,
    gamma_select,
    residual_norm,
)
from transport_nare.transport_problem import (
    assemble_dense,
    balance,
    make_instance,
    unbalance_scale,
    unbalance_solution,
)

SCALAR_B = balance(make_instance(1, 0.5, 0.0))
X_SCALAR = 3.0 - 2.0 * np.sqrt(2.0)


def operator_symmetry_probe(imp, n, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    mu = imp.apply(u)[:, 0]
    mv = imp.apply(v)[:, 0]
    scale = np.linalg.norm(u) * np.linalg.norm(mv) + np.linalg.norm(v) * np.linalg.norm(mu)
    return abs(u @ mv - v @ mu) / scale


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_requires_balanced():
    with pytest.raises(ValueError):
        msda_init(make_instance(4, 0.5, 0.5))


def test_init_scalar_values():
    # raw split factors first, then the assembled rank-one state
    sol = ShiftedSolver(SCALAR_B, 3.0)
    sq = np.sqrt(6.0)
    one = np.ones((1, 1))
    assert abs(sq * sol.solve("W", one)[0, 0] - sq * 6.0 / 35.0) <= 1e-15
    assert abs(sq * sol.solve("E", one)[0, 0] - sq / 6.0) <= 1e-15
    st = msda_init(SCALAR_B)
    assert st.ranks == (1,)
    assert abs(st.H.core[0] - 6.0 / 35.0) <= 1e-15
    assert abs(abs(st.H.left[0, 0]) - 1.0) <= 1e-15
    assert abs(st.H.entry(0, 0) - 6.0 / 35.0) <= 1e-15


@pytest.mark.parametrize("n", [16, 32])
def test_init_matches_dense_h0(n):
    binst = balance(make_instance(n, 0.9, 0.1))
    gamma = gamma_select(binst)
    st = msda_init(binst)
    A, B, C, E = assemble_dense(binst)
    eye = np.eye(n)
    Eg = E + gamma * eye
    W = A + gamma * eye - B @ np.linalg.solve(Eg, C)
    H0 = 2 * gamma * np.linalg.solve(W, B) @ np.linalg.inv(Eg)
    assert np.linalg.norm(st.H.dense() - H0) <= 1e-12 * np.linalg.norm(H0)
    st.H.validate()


def test_init_rank_one():
    st = msda_init(balance(make_instance(8, 0.7, 0.3)))
    assert st.ranks == (1,)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_step_scalar_frozen_value():
    st = msda_init(SCALAR_B)
    msda_step(st)
    assert st.k == 1
    assert abs(st.H.entry(0, 0) - 204.0 / 1189.0) <= 1e-14


def test_step_matches_general_solver_on_balanced():
    binst = balance(make_instance(32, 0.9, 0.1))
    cfg = SolverConfig(trunc_rel=0.0)
    general = LowRankState(binst, config=cfg)
    modified = msda_init(binst, config=cfg)
    for k in range(1, 6):
        sda_ls_step(general)
        msda_step(modified)
        assert modified.ranks[0] == general.ranks[0]
        Hg = general.H.dense()
        diff = np.linalg.norm(modified.H.dense() - Hg)
        assert diff <= 1e-12 * np.linalg.norm(Hg)


@pytest.mark.parametrize("n", [16])
def test_iterates_match_dense_to_convergence(n):
    binst = balance(make_instance(n, 0.5, 0.5))
    A, B, C, E = assemble_dense(binst)
    dense = dense_sda_init(A, B, C, E, gamma_select(binst))
    cfg = SolverConfig(trunc_rel=0.0)
    st = msda_init(binst, config=cfg)
    for _ in range(10):
        msda_step(st)
        dense_sda_step(dense)
        err = np.linalg.norm(st.H.dense() - dense.H)
        assert err <= 1e-10 * np.linalg.norm(dense.H)


def test_step_zero_core_squares_silently():
    st = msda_init(balance(make_instance(16, 0.5, 0.5)))
    st.H.core = np.zeros_like(st.H.core)
    msda_step(st)
    assert st.ranks == (0,)
    assert np.linalg.norm(st.H.dense()) == 0.0
    assert st.Eimp.level == 1 and st.Fimp.level == 1


def test_step_detects_singular_core():
    st = msda_init(balance(make_instance(4, 0.5, 0.5)))
    st.H.core = np.array([1.0])
    with pytest.raises(CoreSingularError):
        msda_step(st)


def test_step_operators_stay_symmetric():
    binst = balance(make_instance(24, 0.9, 0.1))
    st = msda_init(binst)
    for _ in range(6):
        msda_step(st)
        st.H.validate()
    assert operator_symmetry_probe(st.Eimp, 24) <= 1e-12
    assert operator_symmetry_probe(st.Fimp, 24) <= 1e-12


def test_step_uses_two_large_products():
    st = msda_init(balance(make_instance(16, 0.9, 0.1)))
    msda_step(st)
    assert st.flops.iteration_events(1, "implicit_block_apply") == 2
    msda_step(st)
    assert st.flops.iteration_events(2, "implicit_block_apply") == 2


# ---------------------------------------------------------------------------
# full solve
# ---------------------------------------------------------------------------

def test_solve_scalar():
    X, rep = msda_solve(make_instance(1, 0.5, 0.0))
    assert rep.termination == "converged"
    assert abs(X.entry(0, 0) - X_SCALAR) <= 1e-12


@pytest.mark.parametrize("n,c,alpha", [(32, 0.9, 0.1), (64, 0.5, 0.5)])
def test_solve_matches_dense(n, c, alpha):
    inst = make_instance(n, c, alpha)
    Xd, _, _ = dense_sda_solve(inst)
    X, rep = msda_solve(inst)
    assert rep.termination == "converged"
    diff = np.linalg.norm(X.dense() - Xd) / np.linalg.norm(Xd)
    assert diff <= 1e-10


def test_solve_reports_original_scale_residual():
    inst = make_instance(32, 0.9, 0.1)
    X, rep = msda_solve(inst)
    # one residual: the original-scale one of the returned X
    assert rep.extras["residual_original"] == rep.final_residual
    assert rep.final_residual == residual_norm(inst, X)[1]
    assert rep.final_residual <= 1e-12
    assert X.min_entry() >= -1e-12
    assert rep.algorithm == "modified-sda-ls"
    assert rep.rank_history[-1] == (X.rank,)


def test_solve_balanced_input():
    # a balanced instance is solved as given: X is on its own scale
    binst = balance(make_instance(16, 0.8, 0.2))
    X, rep = msda_solve(binst)
    assert rep.termination == "converged"
    assert residual_norm(binst, X)[1] == rep.final_residual


def test_solve_iteration_count_tracks_general_solver():
    inst = make_instance(64, 0.9, 0.1)
    _, rep_ls = sda_ls_solve(inst)
    _, rep_m = msda_solve(inst)
    assert abs(rep_ls.iterations - rep_m.iterations) <= 2


def test_solve_history_is_original_scale():
    # every recorded residual is that of the X the run would return at its
    # level; on this cell the balanced residual met tol one doubling early
    inst = make_instance(8, 0.5, 0.5)
    binst = balance(inst)
    X, rep = msda_solve(inst)
    st = msda_init(binst)
    own = [residual_norm(inst, unbalance_solution(st.H, inst))[1]]
    balanced = [residual_norm(binst, st.H)[1]]
    while st.k < rep.iterations:
        msda_step(st)
        own.append(residual_norm(inst, unbalance_solution(st.H, inst))[1])
        balanced.append(residual_norm(binst, st.H)[1])
    assert rep.residual_history == [own[k] for k in rep.residual_levels]
    assert rep.residual_levels[-1] == rep.iterations
    assert rep.termination == "converged"
    assert own[-2] > 1e-12 >= balanced[-2]
    assert residual_norm(inst, X)[1] == own[-1]


@pytest.mark.parametrize("c, alpha", [(0.9, 0.1), (0.5, 0.5)])
@pytest.mark.parametrize("rank", [0, 1, 5, 12], ids=lambda r: "rank%d" % r)
@pytest.mark.parametrize("balanced", [False, True], ids=["original", "balanced"])
def test_folded_residual_matches_unbalanced_triple_to_the_bit(c, alpha, rank, balanced):
    # the solver's residual scales the balanced triple's rows inside the
    # residual stacks; it must equal that of the unbalanced triple to the
    # bit, at rank 0 (no rank-one update of the stack) and at rank n too
    n = 12
    inst = make_instance(n, c, alpha)
    if balanced:
        inst = balance(inst)
    rng = np.random.default_rng(rank)
    left = np.linalg.qr(rng.standard_normal((n, rank)))[0]
    right = np.linalg.qr(rng.standard_normal((n, rank)))[0]
    Xb = LowRankBilinear(left, np.sort(rng.uniform(0.1, 2.0, rank))[::-1], right)
    folded = residual_norm(inst, Xb, scale=unbalance_scale(inst))
    assert folded == residual_norm(inst, unbalance_solution(Xb, inst))


def test_unbalance_scale():
    inst = make_instance(16, 0.9, 0.1)
    assert np.array_equal(unbalance_scale(inst), inst.u / balance(inst).u)
    assert np.array_equal(unbalance_scale(balance(inst)), np.ones(16))
    with pytest.raises(ValueError):
        unbalance_scale(dataclasses.replace(inst, v=-inst.v))


# ---------------------------------------------------------------------------
# symmetry audit
# ---------------------------------------------------------------------------

def test_audit_initial_symmetry_is_exact():
    audit = audit_symmetry(make_instance(8, 0.5, 0.5), k_max=0,
                           config=SolverConfig(trunc_rel=0.0))
    row = audit.rows[0]
    assert row["k"] == 0
    for key in ("dev_product", "dev_spectrum", "dev_operator", "dev_rank_update"):
        assert row[key] <= 1e-14, key


def test_audit_small_no_truncation():
    audit = audit_symmetry(make_instance(8, 0.5, 0.5), k_max=4,
                           config=SolverConfig(trunc_rel=0.0))
    assert len(audit.rows) == 5
    assert audit.max_gated() <= 1e-12


def test_audit_with_truncation():
    audit = audit_symmetry(make_instance(64, 0.9, 0.1), k_max=5)
    assert audit.max_gated() <= 1e-10


def test_audit_row_contents_and_serialization():
    audit = audit_symmetry(make_instance(8, 0.9, 0.1), k_max=2)
    for row in audit.rows:
        for key in ("k", "rank_h", "rank_g", "dev_product", "dev_spectrum",
                    "dev_operator", "dev_rank_update"):
            assert key in row
    d = audit.to_dict()
    json.dumps(d)
    assert d["schema_version"] == 2
    assert d["n"] == 8
    assert d["max_gated_deviation"] == audit.max_gated()


@pytest.mark.parametrize("k_max", [0, 3])
def test_audit_takes_step_cores_once_per_level(monkeypatch, k_max):
    # the audit forms each level's cores once, for its row; the step takes
    # its own through sda_ls's name, which is left as it is
    calls = []

    def counted(st):
        calls.append(st.k)
        return step_cores(st)
    monkeypatch.setattr(modified_sda_ls, "step_cores", counted)
    audit_symmetry(make_instance(16, 0.9, 0.1), k_max=k_max)
    assert calls == list(range(k_max + 1))


def test_audit_size_limit():
    assert AUDIT_MAX_N == 256
    with pytest.raises(ValueError):
        audit_symmetry(make_instance(257, 0.5, 0.5))
