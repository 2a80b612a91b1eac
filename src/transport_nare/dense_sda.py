"""Dense doubling solver, used as the reference oracle at moderate size.

Everything here is plain dense linear algebra: the four iteration matrices are
stored explicitly and each step costs a handful of n^3 products and LU solves.
The large-scale solvers are validated against this one on instances small
enough to afford it (``DENSE_CAP`` rows).  ``spectral_check`` gives the
eigenvalues of the flow matrix at small size (``SPECTRAL_MAX_N`` rows).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .structured_linalg import gamma_select
from .transport_problem import DENSE_CAP, assemble_dense
from .sda_ls import SolverConfig, SolveReport, run_doubling

__all__ = [
    "DenseSdaState",
    "dense_sda_init",
    "dense_sda_step",
    "dense_sda_solve",
    "dense_residual",
    "SpectralReport",
    "spectral_check",
]

SPECTRAL_MAX_N = 64


@dataclass
class DenseSdaState:
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    H: np.ndarray
    gamma: float
    k: int = 0
    increment: float = 1.0

    @property
    def ranks(self):
        return self.E.shape

    def levels(self):
        return {"e_norms": float(np.linalg.norm(self.E)),
                "f_norms": float(np.linalg.norm(self.F))}


def dense_sda_init(A, B, C, E, gamma):
    """Initial dense doubling matrices from the coefficient quadruple.

    Uses LU with partial pivoting for every solve.  The Cayley-like transform
    needs E + gamma*I, A + gamma*I and the two Schur-type complements
        W = A + gamma*I - B (E + gamma*I)^-1 C,
        V = E + gamma*I - C (A + gamma*I)^-1 B
    to be nonsingular, which gamma at least as large as both diagonals grants
    for these coefficients.
    """
    n = A.shape[0]
    eye = np.eye(n)
    Eg = E + gamma * eye
    Ag = A + gamma * eye
    lu_eg = sla.lu_factor(Eg)
    lu_ag = sla.lu_factor(Ag)
    EgiC = sla.lu_solve(lu_eg, C)
    W = Ag - B @ EgiC
    V = Eg - C @ sla.lu_solve(lu_ag, B)
    lu_w = sla.lu_factor(W)
    Wi = sla.lu_solve(lu_w, eye)
    E0 = eye - 2.0 * gamma * sla.lu_solve(sla.lu_factor(V), eye)
    F0 = eye - 2.0 * gamma * Wi
    G0 = 2.0 * gamma * EgiC @ Wi
    H0 = 2.0 * gamma * Wi @ B @ sla.lu_solve(lu_eg, eye)
    return DenseSdaState(E=E0, F=F0, G=G0, H=H0, gamma=gamma)


def dense_sda_step(st):
    """One doubling step on the dense quadruple; records ||H1 - H||_F / ||H1||_F."""
    n = st.E.shape[0]
    eye = np.eye(n)
    lu_gh = sla.lu_factor(eye - st.G @ st.H)
    lu_hg = sla.lu_factor(eye - st.H @ st.G)
    E1 = st.E @ sla.lu_solve(lu_gh, st.E)
    F1 = st.F @ sla.lu_solve(lu_hg, st.F)
    G1 = st.G + st.E @ sla.lu_solve(lu_gh, st.G @ st.F)
    H1 = st.H + st.F @ sla.lu_solve(lu_hg, st.H @ st.E)
    h1 = np.linalg.norm(H1)
    st.increment = float(np.linalg.norm(H1 - st.H) / h1) if h1 else 0.0
    st.E, st.F, st.G, st.H = E1, F1, G1, H1
    st.k += 1
    return st


def dense_residual(A, B, C, E, X):
    """Normalized dense residual ||X C X - X E - A X + B||_F / ||B||_F."""
    R = X @ C @ X - X @ E - A @ X + B
    return np.linalg.norm(R) / np.linalg.norm(B)


def dense_sda_solve(inst, config=None):
    """Solve the dense equation; returns (X, Y, SolveReport).

    X solves X C X - X E - A X + B = 0 (limit of H_k) and Y the dual
    Y B Y - Y A - E Y + C = 0 (limit of G_k).  Rejects instances above
    DENSE_CAP rows; this is an oracle, not the large-scale path.
    """
    config = config or SolverConfig()
    n = inst.n
    if n > DENSE_CAP:
        raise ValueError(
            "dense solver capped at n=%d (got n=%d); use the low-rank solvers"
            % (DENSE_CAP, n))
    A, B, C, E = assemble_dense(inst)
    gamma = gamma_select(inst)
    report = SolveReport(algorithm="dense-sda", n=n)
    st = run_doubling(
        report, inst,
        lambda: dense_sda_init(A, B, C, E, gamma),
        lambda st, _: dense_sda_step(st),
        lambda st: dense_residual(A, B, C, E, st.H),
        config)
    # the dual equation is the primal one with A and E, B and C swapped
    report.extras["dual_residual"] = float(dense_residual(E, C, B, A, st.G))
    report.extras["min_entry_x"] = float(st.H.min())
    report.extras["min_entry_y"] = float(st.G.min())
    return st.H, st.G, report


@dataclass
class SpectralReport:
    """Eigenvalues of the flow matrix M = [[E, -C], [B, -A]].

    The spectrum of M splits into the eigenvalues of E - C X and the negated
    eigenvalues of A - B Y at the minimal solutions X and Y.  h_eigenvalues
    is that spectrum and mirrored is the same with its n leftmost eigenvalues
    reflected through sign, so it equals sigma(E - C X) together with
    sigma(A - B Y).  Both lists are sorted by nonincreasing real part (ties
    by imaginary part).
    """

    n: int
    h_eigenvalues: np.ndarray
    mirrored: np.ndarray


def _sort_desc_real(vals):
    order = np.lexsort((-vals.imag, -vals.real))
    return vals[order]


def spectral_check(inst):
    """Flow-matrix eigenvalues at small size (n <= SPECTRAL_MAX_N)."""
    n = inst.n
    if n > SPECTRAL_MAX_N:
        raise ValueError(
            "spectral check is a small-size diagnostic (n <= %d, got %d)"
            % (SPECTRAL_MAX_N, n))
    A, B, C, E = assemble_dense(inst)
    h_eigs = _sort_desc_real(np.linalg.eigvals(np.block([[E, -C], [B, -A]])))
    # keep the n rightmost eigenvalues, reflect the n leftmost
    mirrored = _sort_desc_real(np.concatenate([h_eigs[:n], -h_eigs[n:]]))
    return SpectralReport(n=n, h_eigenvalues=h_eigs, mirrored=mirrored)
