"""Balanced-symmetry doubling solver and its symmetry audit.

After diagonal balancing the two quadratic coefficients coincide and the flow
map becomes symmetric, so the G-side factors are redundant: G_k = H_k^T with
Gam = Sig, P1 = Q2 and P2 = Q1.  The outer iterates stay distinct (E_0 comes
from V, built on d, and F_0 from W, built on delta), but each is a symmetric
matrix, kept as diag(d) + U diag(s) U^T.  Exploiting that halves the large
implicit products per step from four to two and the triple updates
(``sda_ls.extend_triple``, with its core SVD) from two to one, and drops one
of the two QRs in each outer-iterate update.  The solver iterates on
the balanced instance and judges each iterate by the residual, on the
instance it was given, of the solution it maps back to.

``audit_symmetry`` runs the general solver from the symmetric initial split on
a balanced instance and measures how well the claimed pairings hold, both as
raw factor differences (which orthonormal-basis rotations and small singular
values contaminate) and as basis-independent products and operator probes
(which is what the equality actually means numerically).
"""

from dataclasses import dataclass, field

import numpy as np

from .structured_linalg import residual_norm
# not called here: perfbench's span tracer patches these names in this module
from .structured_linalg import orthonormalize_against, truncated_svd  # noqa: F401
from .transport_problem import balance, unbalance_solution
from .sda_ls import (
    SolverConfig,
    SolveReport,
    extend_triple,
    low_rank_state,
    run_doubling,
    sda_ls_init,
    sda_ls_step,
    step_core,
)

__all__ = [
    "CoreSingularError",
    "msda_init",
    "msda_step",
    "msda_solve",
    "SymmetryAudit",
    "audit_symmetry",
]

CORE_SINGULAR_TOL = 1e-14

AUDIT_MAX_N = 256


class CoreSingularError(RuntimeError):
    """A core singular value reached 1 and the inner correction blew up."""


def msda_init(inst, config=None, flops=None):
    """Initial rank-one factors on a balanced instance; the G side stays unset."""
    if not np.array_equal(inst.u, inst.v):
        raise ValueError("msda operates on balanced instances; call balance() first")
    config = config or SolverConfig()
    st = low_rank_state(inst, config, flops)
    ph = inst.u[:, None]
    sq = np.sqrt(2.0 * st.gamma)
    none = np.zeros((inst.n, 0))
    st.Q1, st.Sig, st.Q2, st.increment = extend_triple(
        none, np.zeros(0), none, sq * st.solver.solve("W", ph, flops=st.flops),
        np.eye(1), sq * st.solver.solve("E", ph, flops=st.flops), config, st.flops)
    return st


def msda_step(st, config=None):
    """One doubling step of the balanced iteration.

    With G_k = H_k^T the inner correction collapses to the diagonal
    Sig/(1 - Sig^2), and because E_k and F_k are each symmetric the four large
    products of the general step pair up: only F Q1 and E Q2 are needed, and
    one ``extend_triple`` call updates H.
    """
    config = config or SolverConfig()
    flops = st.flops
    flops.k = st.k + 1
    Sig = st.Sig
    om2 = 1.0 - Sig ** 2
    if np.any(np.abs(om2) < CORE_SINGULAR_TOL):
        raise CoreSingularError(
            "core singular value at 1 within %g at step %d"
            % (CORE_SINGULAR_TOL, st.k + 1))
    sig_c = Sig / om2
    dup = Sig * sig_c
    flops.add("inner_core", 6.0 * Sig.size)
    ZE = st.Eimp.apply(st.Q2)
    ZF = st.Fimp.apply(st.Q1)
    st.Q1, st.Sig, st.Q2, st.increment = extend_triple(
        st.Q1, Sig, st.Q2, ZF, np.diag(sig_c), ZE, config, flops)
    st.Eimp.push_symmetric(ZE, dup)
    st.Fimp.push_symmetric(ZF, dup)
    st.k += 1
    return st


def msda_solve(inst, config=None):
    """Solve on the balanced scale, return (X, report) on the scale of ``inst``.

    Takes any instance.  Every residual the run records, and so its stopping
    test, is the residual on ``inst`` of the X it would return.
    """
    config = config or SolverConfig()
    binst = balance(inst)
    report = SolveReport(algorithm="modified-sda-ls", n=inst.n)
    st = run_doubling(
        report, inst,
        lambda: msda_init(binst, config=config, flops=report.flops),
        msda_step,
        lambda st: residual_norm(
            inst, unbalance_solution(st.H, inst), flops=report.flops)[1],
        config)
    report.extras["residual_original"] = report.final_residual
    return unbalance_solution(st.H, inst), report


# ---------------------------------------------------------------------------
# symmetry audit


@dataclass
class SymmetryAudit:
    """Per-iteration symmetry deviations of the general solver on a balanced run.

    Each row carries two families of measurements.  Raw factor differences
    (``dev_q1_p2``, ``dev_q2_p1``, ``dev_core``) compare stored entries, which
    an orthogonal change of basis or a tiny trailing singular value can inflate
    arbitrarily without any loss of mathematical symmetry; they are reported
    for transparency.  The gated family is basis independent: full-product
    deviation H_k vs G_k^T, core-spectrum deviation, operator-transpose probes
    of the implicit iterates, and the cross-factor product identity of the
    step's rank corrections.  ``max_gated`` summarizes the second family only.
    """

    n: int
    params: tuple
    rows: list = field(default_factory=list)

    def max_gated(self):
        keys = ("dev_product", "dev_spectrum", "dev_op_probe", "dev_rank_update")
        worst = 0.0
        for row in self.rows:
            for key in keys:
                worst = max(worst, row[key])
        return worst

    def to_dict(self):
        return {
            "schema_version": 1,
            "n": self.n,
            "c": self.params[0],
            "alpha": self.params[1],
            "rows": [dict(r) for r in self.rows],
            "max_gated_deviation": self.max_gated(),
        }


def _probe_operator_symmetry(imp, n, rng, probes=4):
    """max over random probes of |u^T (M v) - v^T (M u)| / scales.

    On a balanced instance each outer iterate is a symmetric matrix in exact
    arithmetic, so its bilinear form must be symmetric; this checks the
    operator as a map without touching stored factors.
    """
    U = rng.standard_normal((n, probes))
    V = rng.standard_normal((n, probes))
    MV = imp.apply(V)
    MU = imp.apply(U)
    num = np.abs(np.einsum("ij,ij->j", U, MV) - np.einsum("ij,ij->j", MU, V))
    den = (np.linalg.norm(U, axis=0) * np.linalg.norm(MV, axis=0)
           + np.linalg.norm(MU, axis=0) * np.linalg.norm(V, axis=0))
    return float(np.max(num / np.maximum(den, 1e-300)))


def audit_symmetry(inst, k_max=4, config=None, seed=0):
    """Run the general solver on the balanced instance, measure how the G-side
    tracks the transposed H-side for k_max steps.

    Only intended at moderate size (n <= AUDIT_MAX_N): the product deviations
    are formed densely.
    """
    binst = balance(inst)
    n = binst.n
    if n > AUDIT_MAX_N:
        raise ValueError("symmetry audit is a diagnostic; n <= %d" % AUDIT_MAX_N)
    config = config or SolverConfig()
    rng = np.random.default_rng(seed)
    st = sda_ls_init(binst, config=config)
    audit = SymmetryAudit(n=n, params=(binst.params.c, binst.params.alpha))
    for k in range(k_max + 1):
        H = st.H.dense()
        G = st.G.dense()
        h_norm = np.linalg.norm(H)
        sig1 = st.Sig[0]
        mm = min(st.Sig.size, st.Gam.size)
        row = {
            "k": k,
            "rank_h": int(st.Sig.size),
            "rank_g": int(st.Gam.size),
            "dev_q1_p2": float(np.linalg.norm(st.Q1[:, :mm] - st.P2[:, :mm])
                               / np.sqrt(mm)),
            "dev_q2_p1": float(np.linalg.norm(st.Q2[:, :mm] - st.P1[:, :mm])
                               / np.sqrt(mm)),
            "dev_core": float(np.max(np.abs(st.Sig[:mm] - st.Gam[:mm])) / sig1),
            "dev_product": float(np.linalg.norm(H - G.T) / max(h_norm, 1e-300)),
            "dev_spectrum": float(
                np.max(np.abs(np.sort(st.Sig[:mm]) - np.sort(st.Gam[:mm]))) / sig1),
            "dev_op_probe": max(_probe_operator_symmetry(st.Eimp, n, rng),
                                _probe_operator_symmetry(st.Fimp, n, rng)),
        }
        # rank-correction identity: each outer iterate stays symmetric, so the
        # step's assembled low-rank corrections (E P1) WE (E^T Q2)^T and
        # (F Q1) WF (F^T P2)^T must each equal their own transposes; measured
        # as full products, which is basis independent.
        N1 = st.Q2.T @ st.P1
        N2 = st.P2.T @ st.Q1
        _, _, WE, WF = step_core(st.Sig, st.Gam, N1, N2)
        ZE1 = st.Eimp.apply(st.P1)
        ZE2 = st.Eimp.apply_transpose(st.Q2)
        ZF1 = st.Fimp.apply(st.Q1)
        ZF2 = st.Fimp.apply_transpose(st.P2)
        upd_e = (ZE1 @ WE) @ ZE2.T
        upd_f = (ZF1 @ WF) @ ZF2.T
        dev = 0.0
        for upd in (upd_e, upd_f):
            un = max(np.linalg.norm(upd), 1e-300)
            dev = max(dev, np.linalg.norm(upd - upd.T) / un)
        row["dev_rank_update"] = float(dev)
        audit.rows.append(row)
        if k < k_max:
            sda_ls_step(st, config)
    return audit
