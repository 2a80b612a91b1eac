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

from .structured_linalg import residual_norm
# not called here: perfbench's span tracer patches these names in this module
from .structured_linalg import orthonormalize_against, truncated_svd  # noqa: F401
from .transport_problem import balance, unbalance_solution
from .sda_ls import (
    LowRankState,
    SolverConfig,
    SolveReport,
    extend_triple,
    run_doubling,
    sda_ls_init,
    sda_ls_step,
    step_products,
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
    """Level-0 state on a balanced instance, H0 rank one; ``G`` is None."""
    if inst.u is not inst.v:
        raise ValueError("msda operates on balanced instances; call balance() first")
    st = LowRankState(inst, config, flops)
    st.G = None
    return st


def msda_step(st):
    """One doubling step of the balanced iteration.

    With G_k = H_k^T the inner correction collapses to the diagonal
    Sig/(1 - Sig^2), and because E_k and F_k are each symmetric the four large
    products of the general step pair up: only F Q1 and E Q2 are needed, and
    one ``extend_triple`` call updates H.  It checks the rank cap before it
    consumes the old triple, so a rank overflow leaves the state as it was.
    """
    flops = st.flops
    flops.k = st.k + 1
    Sig = st.H.core
    om2 = 1.0 - Sig ** 2
    if np.any(np.abs(om2) < CORE_SINGULAR_TOL):
        raise CoreSingularError(
            "core singular value at 1 within %g at step %d"
            % (CORE_SINGULAR_TOL, st.k + 1))
    sig_c = Sig / om2
    dup = Sig * sig_c
    flops.add("inner_core", 6.0 * Sig.size)
    ZE = st.Eimp.apply(st.H.right)
    ZF = st.Fimp.apply(st.H.left)
    st.H, st.increment = extend_triple(st.H, ZF, np.diag(sig_c), ZE, st.config, flops)
    st.Eimp.push_symmetric(ZE, dup)
    del ZE      # F's push does not read it (peak memory)
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


def audit_symmetry(inst, k_max=4, config=None):
    """Run the general solver on the balanced instance, measure how the G-side
    tracks the transposed H-side for k_max steps.

    Only intended at moderate size (n <= AUDIT_MAX_N): H_k, G_k and the outer
    iterates are formed densely.
    """
    binst = balance(inst)
    n = binst.n
    if n > AUDIT_MAX_N:
        raise ValueError("symmetry audit is a diagnostic; n <= %d" % AUDIT_MAX_N)
    st = sda_ls_init(binst, config=config)
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
        # (F Q1) WF (F^T P2)^T, formed densely from the factors and cores the
        # step pushed (n <= AUDIT_MAX_N); the last level takes no step.
        _, _, ZE1, ZE2, ZF1, ZF2, WE, WF = (
            sda_ls_step(st) if k < k_max else step_products(st))
        row["dev_rank_update"] = max(_asymmetry(ZE1 @ (WE @ ZE2.T)),
                                     _asymmetry(ZF1 @ (WF @ ZF2.T)))
        audit.rows.append(row)
    return audit
