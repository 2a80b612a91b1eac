"""Balanced-symmetry doubling solver and its symmetry audit.

After diagonal balancing the two quadratic coefficients coincide and the flow
map becomes symmetric, so the G-side factors are redundant: G_k = H_k^T with
Gam = Sig, P1 = Q2 and P2 = Q1.  The outer iterates stay distinct (E_0 comes
from V, built on d, and F_0 from W, built on delta), but each is a symmetric
matrix, kept as diag(d) + U diag(s) U^T.  Exploiting that halves the large
implicit products per step from four to two and the triple updates
(``sda_ls.extend_triple``, with its core SVD) from two to one.  Each outer
iterate advances by ``ImplicitIterate.push_symmetric``, the same push as
sda-ls's ``push_update`` with one stack QR where that takes two.  The solver
iterates on the balanced instance and judges each iterate by the residual,
on the instance it was given, of the solution it maps back to.

``audit_symmetry`` runs the general solver from the symmetric initial split on
a balanced instance and measures how well the claimed pairings hold, through
basis-independent products, spectra and dense images: stored factors may
differ by any orthogonal change of basis without any loss of symmetry.
"""

from dataclasses import dataclass, field

import numpy as np

from .structured_linalg import Correction, FlopModel, residual_norm
# not called here: perfbench's span tracer patches these names in this module
from .structured_linalg import orthonormalize_against, truncated_svd  # noqa: F401
from .transport_problem import balance, unbalance_scale, unbalance_solution
from .sda_ls import (
    LowRankState,
    SolverConfig,
    SolveReport,
    extend_triple,
    run_doubling,
    sda_ls_step,
    step_cores,
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


def msda_init(inst, config, flops):
    """Level-0 state on a balanced instance, H0 rank one; ``G`` is None.

    Its steps run under ``config`` and count into ``flops``, the solve's
    ``FlopModel``.
    """
    if inst.u is not inst.v:
        raise ValueError("msda operates on balanced instances; call balance() first")
    st = LowRankState(inst, config, flops)
    st.G = None
    return st


def msda_step(st):
    """One doubling step of the balanced iteration.

    With G_k = H_k^T the inner correction collapses to the diagonal
    Sig/(1 - Sig^2), and because E_k and F_k are each symmetric the four large
    products of the general step pair up: only E Q2 and F Q1 are needed, and
    one ``extend_triple`` call updates H.  It checks the rank cap
    (``st.check_rank_cap``) before any update, so a rank overflow leaves
    the state as it was.  Each product is built just before its
    first reader, E's and F's push, and both are handed on to the H extend,
    their last reader, which frees each once its stack holds a copy.  Each
    push takes its update screened: E Q2 and F Q1 are E_k and F_k times
    orthonormal columns, so trailing weights of dup whose sum times
    (max|d_k| + max|s_k|)^2 is at most trunc_rel * max|d_{k+1}| are left
    out (``ImplicitIterate.screen``) and the push sees prefix views of the
    product and of dup; the H extend takes both whole.
    """
    st.check_rank_cap()
    flops = st.flops
    flops.k = st.k + 1
    H = st.H
    Sig = H.core
    om2 = 1.0 - Sig ** 2
    if np.any(np.abs(om2) < CORE_SINGULAR_TOL):
        raise CoreSingularError(
            "core singular value at 1 within %g at step %d"
            % (CORE_SINGULAR_TOL, st.k + 1))
    sig_c = Sig / om2
    dup = Sig * sig_c
    flops.add("inner_core", 6.0 * Sig.size)
    E, F = st.Eimp, st.Fimp
    ZE = E.apply(H.right)
    m = E.screen(dup)
    E.push_symmetric(ZE[:, :m], dup[:m])
    ZF = F.apply(H.left)
    m = F.screen(dup)
    F.push_symmetric(ZF[:, :m], dup[:m])
    update = Correction(ZF, np.diag(sig_c), ZE)
    del ZE, ZF
    st.H, st.increment = extend_triple(H, update, st.config.trunc_rel, flops)
    st.k += 1
    return st


def msda_solve(inst, config=None):
    """Solve on the balanced scale, return (X, report) on the scale of ``inst``.

    Takes any instance.  Every residual the run records, and so its stopping
    test, is the residual on ``inst`` of the X it would return: the balanced
    iterate judged through ``residual_norm``'s row scale, ``unbalance_scale``,
    the one scale ``unbalance_solution`` maps the result back with.
    """
    config = config or SolverConfig()
    binst = balance(inst)
    report = SolveReport(algorithm="modified-sda-ls", n=inst.n)
    st = run_doubling(
        report, inst,
        lambda: msda_init(binst, config=config, flops=report.flops),
        msda_step,
        lambda st: residual_norm(
            inst, st.H, flops=report.flops, scale=unbalance_scale(inst))[1],
        config)
    report.extras["residual_original"] = report.final_residual
    return unbalance_solution(st.H, inst), report


# ---------------------------------------------------------------------------
# symmetry audit


@dataclass
class SymmetryAudit:
    """Per-iteration symmetry deviations of the general solver on a balanced run.

    Every deviation in a row is basis independent: full-product deviation
    H_k vs G_k^T, core-spectrum deviation, the relative asymmetry of the dense
    images of E_k and F_k, and that of the step's two rank corrections.
    ``max_gated`` is the largest of them over all rows.
    """

    n: int
    params: tuple
    rows: list = field(default_factory=list)

    def max_gated(self):
        keys = ("dev_product", "dev_spectrum", "dev_operator", "dev_rank_update")
        worst = 0.0
        for row in self.rows:
            for key in keys:
                worst = max(worst, row[key])
        return worst

    def to_dict(self):
        return {
            "schema_version": 2,
            "n": self.n,
            "c": self.params[0],
            "alpha": self.params[1],
            "rows": [dict(r) for r in self.rows],
            "max_gated_deviation": self.max_gated(),
        }


def _asymmetry(M):
    """||M - M^T||_F / ||M||_F."""
    return float(np.linalg.norm(M - M.T) / max(np.linalg.norm(M), 1e-300))


def audit_symmetry(inst, config, k_max=4):
    """Run the general solver on the balanced instance under ``config``,
    measure how the G-side tracks the transposed H-side for k_max steps.

    Only intended at moderate size (n <= AUDIT_MAX_N): H_k, G_k and the outer
    iterates are formed densely, and so is each level's pair of rank
    corrections, from the cores of ``step_cores`` and the audit's own four
    implicit products (once per level): ``sda_ls_step`` builds and frees
    its products itself.
    """
    binst = balance(inst)
    n = binst.n
    if n > AUDIT_MAX_N:
        raise ValueError("symmetry audit is a diagnostic; n <= %d" % AUDIT_MAX_N)
    st = LowRankState(binst, config, FlopModel())
    audit = SymmetryAudit(n=n, params=(binst.params.c, binst.params.alpha))
    eye = np.eye(n)
    for k in range(k_max + 1):
        H, G = st.H, st.G
        Hd = H.dense()
        mm = min(H.rank, G.rank)
        row = {
            "k": k,
            "rank_h": H.rank,
            "rank_g": G.rank,
            "dev_product": float(
                np.linalg.norm(Hd - G.dense().T) / max(np.linalg.norm(Hd), 1e-300)),
            "dev_spectrum": float(
                np.max(np.abs(np.sort(H.core[:mm]) - np.sort(G.core[:mm])))
                / H.core[0]),
            "dev_operator": max(_asymmetry(st.Eimp.apply(eye)),
                                _asymmetry(st.Fimp.apply(eye))),
        }
        # each outer iterate is a symmetric matrix on a balanced instance, and
        # so are the step's rank corrections (E P1) WE (E^T Q2)^T and
        # (F Q1) WF (F^T P2)^T; the last level takes no step
        _, _, WE, WF = step_cores(st)
        ZE1, ZE2 = st.Eimp.apply(G.left), st.Eimp.apply(H.right, transpose=True)
        ZF1, ZF2 = st.Fimp.apply(H.left), st.Fimp.apply(G.right, transpose=True)
        row["dev_rank_update"] = max(_asymmetry(ZE1 @ (WE @ ZE2.T)),
                                     _asymmetry(ZF1 @ (WF @ ZF2.T)))
        audit.rows.append(row)
        if k < k_max:
            sda_ls_step(st)
    return audit
