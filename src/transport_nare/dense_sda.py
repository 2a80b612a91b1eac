"""Dense doubling solver, used as the reference oracle at moderate size.

Everything here is plain dense linear algebra: the four iteration matrices are
stored explicitly and each step costs a handful of n^3 products and LU solves.
The large-scale solvers are validated against this one on instances small
enough to afford it (``DENSE_CAP`` rows).
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
    "spectral_check_matrices",
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
    """One doubling step on the dense quadruple."""
    n = st.E.shape[0]
    eye = np.eye(n)
    lu_gh = sla.lu_factor(eye - st.G @ st.H)
    lu_hg = sla.lu_factor(eye - st.H @ st.G)
    E1 = st.E @ sla.lu_solve(lu_gh, st.E)
    F1 = st.F @ sla.lu_solve(lu_hg, st.F)
    G1 = st.G + st.E @ sla.lu_solve(lu_gh, st.G @ st.F)
    H1 = st.H + st.F @ sla.lu_solve(lu_hg, st.H @ st.E)
    st.E, st.F, st.G, st.H = E1, F1, G1, H1
    st.k += 1
    return st


def dense_residual(A, B, C, E, X):
    """Normalized dense residual ||X C X - X E - A X + B||_F / ||B||_F."""
    R = X @ C @ X - X @ E - A @ X + B
    return np.linalg.norm(R) / np.linalg.norm(B)


def dense_sda_solve(inst, config=None, gamma=None):
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
    if gamma is None:
        gamma = gamma_select(inst)
    report = SolveReport(algorithm="dense-sda", n=n)
    st = run_doubling(
        report, inst,
        lambda: dense_sda_init(A, B, C, E, gamma),
        lambda st, _: dense_sda_step(st),
        lambda st: dense_residual(A, B, C, E, st.H),
        config)
    report.extras["dual_residual"] = float(
        np.linalg.norm(st.G @ B @ st.G - st.G @ A - E @ st.G + C)
        / np.linalg.norm(C))
    report.extras["min_entry_x"] = float(st.H.min())
    report.extras["min_entry_y"] = float(st.G.min())
    return st.H, st.G, report


@dataclass
class SpectralReport:
    """Eigenvalue cross-check between the flow matrix and its sign-flipped twin.

    h_eigenvalues come from M = [[E, -C], [B, -A]], whose spectrum splits
    into the eigenvalues of E - C X and the negated eigenvalues of A - B Y
    at the minimal solutions.  mirrored is that spectrum with its left half
    reflected through sign, so it equals sigma(E - C X) together with
    sigma(A - B Y); this closed-loop relation is the one that holds.
    k_eigenvalues come from the sign-flipped N = [[E, -C], [-B, A]], the flow
    matrix of the same equation with B and C negated.  Both eigenvalue lists
    are sorted by nonincreasing real part (ties by imaginary part).
    match_distance is the Hausdorff distance between the spectrum of N and
    mirrored, the pairing a symmetric-coefficient argument would suggest; on
    these transport coefficients the two genuinely differ (n = 1: +-2*sqrt(2)
    mirrored to {2*sqrt(2), 2*sqrt(2)}, against {2, 4}), so it is a
    diagnostic, not an error.
    """

    n: int
    h_eigenvalues: np.ndarray
    k_eigenvalues: np.ndarray
    mirrored: np.ndarray
    match_distance: float

    def to_dict(self):
        def ser(v):
            return [[float(z.real), float(z.imag)] for z in v]
        return {
            "schema_version": 1,
            "n": self.n,
            "h_eigenvalues": ser(self.h_eigenvalues),
            "k_eigenvalues": ser(self.k_eigenvalues),
            "mirrored": ser(self.mirrored),
            "match_distance": float(self.match_distance),
        }


def _sort_desc_real(vals):
    order = np.lexsort((-vals.imag, -vals.real))
    return vals[order]


def hausdorff_distance(a, b):
    """Hausdorff distance between two finite point sets in the complex plane."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    dist = np.abs(a[:, None] - b[None, :])
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


def spectral_check_matrices(A, B, C, E):
    """Eigenvalue comparison for an explicit coefficient quadruple."""
    n = A.shape[0]
    M = np.block([[E, -C], [B, -A]])
    N = np.block([[E, -C], [-B, A]])
    h_eigs = _sort_desc_real(np.linalg.eigvals(M))
    k_eigs = _sort_desc_real(np.linalg.eigvals(N))
    # mirror: keep the n rightmost eigenvalues of M, reflect the n leftmost
    mirrored = np.concatenate([h_eigs[:n], -h_eigs[n:]])
    mirrored = _sort_desc_real(mirrored)
    dist = hausdorff_distance(k_eigs, mirrored)
    return SpectralReport(n=n, h_eigenvalues=h_eigs, k_eigenvalues=k_eigs,
                          mirrored=mirrored, match_distance=dist)


def spectral_check(inst):
    """Diagnostic eigenvalue comparison at small size (n <= SPECTRAL_MAX_N)."""
    n = inst.n
    if n > SPECTRAL_MAX_N:
        raise ValueError(
            "spectral check is a small-size diagnostic (n <= %d, got %d)"
            % (SPECTRAL_MAX_N, n))
    A, B, C, E = assemble_dense(inst)
    return spectral_check_matrices(A, B, C, E)
