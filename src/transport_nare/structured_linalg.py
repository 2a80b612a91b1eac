"""Structured O(n) kernels shared by all solvers.

Everything here exploits the same shape: coefficient matrices that are diagonal
plus a rank-one outer product.  Shifted inverses then collapse to Sherman-Morrison
corrections over diagonal solves, the doubling base operators become fused
"diagonal times block plus rank-one correction" applications, the outer doubling
iterates stay diagonal plus low rank, and residuals of low-rank iterates can be
evaluated without ever forming an n-by-n matrix.

The flop counters follow the kernels defined here so that the two large-scale
solvers can be compared on counted work rather than wall time.
"""

import csv

import numpy as np
import scipy.linalg as sla

__all__ = [
    "NearCriticalError",
    "RankOverflowError",
    "LowRankBilinear",
    "ShiftedSolver",
    "BaseOperators",
    "ImplicitIterate",
    "FlopModel",
    "gamma_select",
    "truncated_svd",
    "orthonormalize_against",
    "residual_norm",
]

#: relative threshold below which a pivot in the block-QR remainder is treated
#: as numerically null and the corresponding direction is discarded.
QR_NULL_REL = 1e-14

#: |1 - v^T D^-1 u| below this means the Sherman-Morrison denominator vanished,
#: which for transport instances happens only toward the critical parameter pair.
SMW_DENOM_TOL = 1e-14


class NearCriticalError(RuntimeError):
    """A structured solve hit a (near-)singular Sherman-Morrison denominator."""


class RankOverflowError(RuntimeError):
    """Truncated factor rank exceeded the configured cap."""


# ---------------------------------------------------------------------------
# low-rank container
# ---------------------------------------------------------------------------

class LowRankBilinear:
    """Triple factorization ``left @ diag(core) @ right.T``.

    Solver iterates keep ``left`` and ``right`` column-orthonormal with a
    nonnegative, nonincreasing ``core``.  The back-transformed solution reuses
    the container with row-scaled (hence no longer orthonormal) factors, so
    orthonormality checking is a method rather than a constructor hard error.
    """

    def __init__(self, left, core, right):
        left = np.asarray(left, dtype=float)
        right = np.asarray(right, dtype=float)
        core = np.asarray(core, dtype=float).ravel()
        if left.ndim != 2 or right.ndim != 2:
            raise ValueError("factors must be 2-d")
        if left.shape[1] != core.size or right.shape[1] != core.size:
            raise ValueError("factor widths and core length disagree")
        if left.shape[0] != right.shape[0]:
            raise ValueError("factor row dimensions disagree")
        self.left = left
        self.core = core
        self.right = right

    @property
    def n(self):
        return self.left.shape[0]

    @property
    def rank(self):
        return self.core.size

    def dense(self):
        return self.left @ (self.core[:, None] * self.right.T)

    def entry(self, i, j):
        """Single entry without forming the dense matrix."""
        return float(self.left[i] @ (self.core * self.right[j]))

    def min_entry(self):
        """Exact elementwise minimum, formed blockwise to stay O(n * rank) in memory."""
        n = self.n
        best = np.inf
        step = max(1, 2 ** 22 // max(1, n))
        scaled = self.core[:, None] * self.right.T
        for lo in range(0, n, step):
            block = self.left[lo:lo + step] @ scaled
            best = min(best, float(block.min()))
        return best

    def orthonormality_defect(self):
        r = self.rank
        if r == 0:
            return 0.0
        rl = self.left.T @ self.left - np.eye(r)
        rr = self.right.T @ self.right - np.eye(r)
        return max(np.abs(rl).max(initial=0.0), np.abs(rr).max(initial=0.0))

    def validate(self, tol=1e-12):
        """Check the solver-iterate invariants (orthonormal factors, sorted core)."""
        if self.orthonormality_defect() > tol:
            raise ValueError("factor blocks are not column-orthonormal")
        if np.any(self.core < -tol):
            raise ValueError("core entries must be nonnegative")
        if np.any(np.diff(self.core) > tol):
            raise ValueError("core entries must be nonincreasing")
        return self


# ---------------------------------------------------------------------------
# flop accounting
# ---------------------------------------------------------------------------

# Counting conventions (multiply+add = 2 flops):
#   gemm (p,q)@(q,r)           2*p*q*r
#   diagonal scale of (p,q)    p*q
# Small dense factorizations use the usual leading-order constants
# (QR of (n,m): 2*n*m^2, SVD of (m,m): 12*m^3, symmetric eigendecomposition
# of (m,m): 9*m^3).  The constants only matter relative to each other: the
# acceptance comparison is a ratio of totals accumulated with identical
# formulas in both solvers.

class FlopModel:
    """Per-iteration, per-kernel counted work for one solve.

    Counters are keyed by (iteration, kernel label).  ``event`` tracks discrete
    happenings (block applications of the implicit operators) that acceptance
    checks assert on exactly.
    """

    def __init__(self):
        self.flops = {}
        self.events = {}
        self.k = 0

    def add(self, label, amount):
        key = (self.k, label)
        self.flops[key] = self.flops.get(key, 0.0) + float(amount)

    def event(self, label, count=1):
        key = (self.k, label)
        self.events[key] = self.events.get(key, 0) + int(count)

    def snapshot(self, k):
        return {label: f for (kk, label), f in sorted(self.flops.items()) if kk == k}

    def iteration_total(self, k, exclude=()):
        return sum(f for (kk, label), f in self.flops.items()
                   if kk == k and label not in exclude)

    def iteration_events(self, k, label):
        return self.events.get((k, label), 0)

    def total(self, exclude=()):
        return sum(f for (_, label), f in self.flops.items() if label not in exclude)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["k", "kernel", "count"])
            for (k, label), f in sorted(self.flops.items()):
                w.writerow([k, label, f"{f:.0f}"])


# ---------------------------------------------------------------------------
# shifted Sherman-Morrison solves
# ---------------------------------------------------------------------------

class _RankOneShifted:
    """Sherman-Morrison solves with diag(dd) - u v^T; its transpose swaps u and v."""

    def __init__(self, dd, u, v):
        self.inv_d = 1.0 / dd
        self.u = u
        self.v = v
        self._du = self.inv_d * u
        self._dv = self._du if v is u else self.inv_d * v
        # v^T D^-1 u = u^T D^-1 v: one denominator serves both orientations
        self.denom = 1.0 - v @ self._du
        if abs(self.denom) < SMW_DENOM_TOL:
            raise NearCriticalError(
                "Sherman-Morrison denominator %.3e is numerically singular; "
                "the instance is at or near the critical parameter pair" % self.denom)

    def solve(self, b, transpose=False):
        du, v = (self._dv, self.u) if transpose else (self._du, self.v)
        y = self.inv_d[:, None] * b
        return y + du[:, None] * ((v @ y) / self.denom)

    def matvec(self, b, transpose=False):
        u, v = (self.v, self.u) if transpose else (self.u, self.v)
        return (1.0 / self.inv_d)[:, None] * b - np.outer(u, v @ b)


def gamma_select(inst):
    """Doubling shift: the largest diagonal entry over both coefficient matrices.

    The diagonals of A and E are delta_i - u_i v_i and d_i - u_i v_i (the same
    values before and after balancing), and d_i >= delta_i, so the max is
    attained on the d side; both are scanned to keep the contract literal.
    """
    q = inst.q
    return float(max(np.max(inst.delta - q), np.max(inst.d - q)))


class ShiftedSolver:
    """Shifted inverses for one instance at a fixed doubling shift gamma.

    Provides solves with E+gamma*I, A+gamma*I and the Schur-type combinations
    W = A + gamma*I - B (E+gamma*I)^-1 C   and
    V = E + gamma*I - C (A+gamma*I)^-1 B.
    With A = diag(delta) - u v^T, B = u u^T, C = v v^T, E = diag(d) - v u^T,
    B (E+gamma*I)^-1 C = s u v^T with s = u^T (E+gamma*I)^-1 v, so W (and
    likewise V) stays diagonal-minus-rank-one and every solve costs O(n) per
    column.  The factor 1+s (1+t for V) is split as its square root on both
    sides, which makes the W and V solves of a balanced instance (u = v)
    self-transpose down to the last bit.
    """

    WHICH = ("E", "A", "W", "V")

    def __init__(self, inst, gamma):
        self.n = inst.n
        self.gamma = float(gamma)
        u, v = inst.u, inst.v
        self._eg = _RankOneShifted(inst.d + gamma, v, u)
        self._ag = _RankOneShifted(inst.delta + gamma, u, v)
        s = float(u @ self._eg.solve(v[:, None])[:, 0])
        t = float(v @ self._ag.solve(u[:, None])[:, 0])
        if 1.0 + s < 0 or 1.0 + t < 0:
            raise NearCriticalError("Schur correction lost positivity")
        rs, rt = np.sqrt(1.0 + s), np.sqrt(1.0 + t)
        # a balanced instance (u is v) shares one array between both sides
        rsu, rtv = rs * u, rt * v
        self._w = _RankOneShifted(inst.delta + gamma, rsu, rsu if v is u else rs * v)
        self._v = _RankOneShifted(inst.d + gamma, rtv, rtv if u is v else rt * u)

    def _pick(self, which):
        try:
            return {"E": self._eg, "A": self._ag, "W": self._w, "V": self._v}[which]
        except KeyError:
            raise ValueError("which must be one of %r" % (self.WHICH,)) from None

    def solve(self, which, block, transpose=False, flops=None):
        block = np.atleast_2d(np.asarray(block, dtype=float))
        if block.shape[0] != self.n:
            raise ValueError("block has %d rows, expected %d" % (block.shape[0], self.n))
        op = self._pick(which)
        if flops is not None:
            flops.add("smw_solve", 5 * block.size)
        return op.solve(block, transpose)

    def apply(self, which, block, transpose=False):
        """Multiply by the shifted operator itself (round-trip checks)."""
        block = np.atleast_2d(np.asarray(block, dtype=float))
        return self._pick(which).matvec(block, transpose)

    def roundtrip_error(self, which, probes=10, seed=0):
        """max_j ||Op(solve(Op, x_j)) - x_j|| / ||x_j|| over random probes."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((self.n, probes))
        y = self.apply(which, self.solve(which, x))
        return float(np.max(np.linalg.norm(y - x, axis=0) / np.linalg.norm(x, axis=0)))


class BaseOperators:
    """Fused doubling base operators at level zero.

    E0 = I - 2*gamma*V^-1 and F0 = I - 2*gamma*W^-1 are themselves diagonal plus
    rank-one, so each application is one diagonal scale and one rank-one
    correction (about 5n flops per column) instead of a full shifted solve.
    Each is stored as (a, p, w) for diag(a) + p w^T; the transpose swaps p
    and w.
    """

    def __init__(self, solver):
        g2 = 2.0 * solver.gamma
        self.n = solver.n
        self._ops = {}
        for name, sm in (("E", solver._v), ("F", solver._w)):
            a = 1.0 - g2 * sm.inv_d
            self._ops[name] = (a[:, None], -(g2 / sm.denom) * sm._du, sm._dv)

    def apply(self, name, block, transpose=False):
        a, p, w = self._ops[name]
        if transpose:
            p, w = w, p
        return a * block + p[:, None] * (w @ block)[None, :]

    def dense(self, name):
        """Exact dense image of the fused operator (test oracle)."""
        a, p, w = self._ops[name]
        return np.diag(a[:, 0]) + np.outer(p, w)


# ---------------------------------------------------------------------------
# outer doubling iterate
# ---------------------------------------------------------------------------

class ImplicitIterate:
    """The outer doubling iterate E_k (or F_k), stored as diagonal plus low rank.

    Level 0 is the fused base operator diag(a) + p w^T.  Squaring keeps that
    shape, (D + U V^T)^2 = D^2 + (D U + U V^T U) V^T + U (D V)^T, so level k
    holds the vector d_k = a^(2^k) and two n x r factors, recompressed after
    each update by a plain economic QR of both stacks and an SVD of the small
    core truncated at ``trunc_rel``.  The stacks need no basis extension or
    drop rule: Q R reproduces a rank-deficient stack too, and the truncated
    SVD of the core sets the new rank.  A block apply costs O(n r) per column at
    every level.

    ``push_symmetric`` keeps a symmetric iterate in the one-factor form
    diag(d) + U diag(s) U^T with orthonormal U, which needs one QR per level
    instead of two.
    """

    def __init__(self, base, name, flops=None, trunc_rel=0.0):
        a, p, w = base._ops[name]
        self.n = base.n
        self.level = 0
        self.flops = flops
        self.trunc_rel = trunc_rel
        self.d = a[:, 0]
        self.U = p[:, None]
        self.V = w[:, None]
        self.s = None       # set by push_symmetric

    @property
    def rank(self):
        return self.U.shape[1]

    def _advance(self, u, v):
        if u.shape[0] != self.n or v.shape[0] != self.n or u.shape[1] != v.shape[1]:
            raise ValueError("update factors must be n x r with matching r")
        self.level += 1

    def push_update(self, u, v):
        """Advance one level: new operator = old @ old + u @ v.T."""
        if self.s is not None:
            raise ValueError("a symmetric iterate advances by push_symmetric")
        self._advance(u, v)
        d, U, V = self.d, self.U, self.V
        r = U.shape[1]
        # each stack is freed once factored: both alive at once raise the peak
        left = np.hstack([d[:, None] * U + U @ (V.T @ U), U, u])
        Ql, Rl = sla.qr(left, mode="economic")
        del left
        right = np.hstack([V, d[:, None] * V, v])
        Qr, Rr = sla.qr(right, mode="economic")
        del right
        Uc, sc, Vc = truncated_svd(Rl @ Rr.T, self.trunc_rel, flops=self.flops)
        self.U = Ql @ (Uc * sc[None, :])
        self.V = Qr @ Vc
        self.d = d * d
        if self.flops is not None:
            w = 2 * r + u.shape[1]
            self.flops.add("implicit_update", self.n * r * (4.0 * r + 2.0) + 2.0 * w ** 3
                           + 4.0 * self.n * w * w
                           + 2.0 * self.n * (Ql.shape[1] + Qr.shape[1]) * sc.size)

    def push_symmetric(self, z, dup):
        """Advance a symmetric iterate one level: old @ old + z diag(dup) z^T.

        The first call reads the level-0 correction p w^T, where p is a
        multiple of w on a balanced instance, as (p.w) w w^T / (w.w).
        """
        if self.s is None and self.level > 0:
            raise ValueError("push_symmetric continues a symmetric iterate only")
        self._advance(z, z)
        if self.s is None:
            w = self.V[:, 0]
            self.s = np.array([self.U[:, 0] @ w])
            self.U, self.V = (w / np.linalg.norm(w))[:, None], None
        d, U, s = self.d, self.U, self.s
        r = U.shape[1]
        # K = [D U, U, z] = Q R; with U^T U = I the update is Q C Q^T, where
        # C = R0 S R1^T + R1 S R0^T + R1 S^2 R1^T + R2 diag(dup) R2^T
        Q, R = sla.qr(np.hstack([d[:, None] * U, U, z]), mode="economic")
        R0, R1s, R2 = R[:, :r], R[:, r:2 * r] * s[None, :], R[:, 2 * r:]
        C = R0 @ R1s.T
        lam, W = np.linalg.eigh(C + C.T + R1s @ R1s.T + (R2 * dup[None, :]) @ R2.T)
        big = np.abs(lam).max(initial=0.0)
        keep = (lam != 0.0) & (np.abs(lam) >= self.trunc_rel * big)
        self.U, self.s = Q @ W[:, keep], lam[keep]
        self.d = d * d
        if self.flops is not None:
            m, w = R.shape
            self.flops.add("implicit_update", self.n * r + 2.0 * self.n * w * w
                           + 6.0 * m ** 3 + 2.0 * self.n * m * self.s.size)
            self.flops.add("eig", 9.0 * m ** 3)

    def apply(self, block, transpose=False):
        block = np.asarray(block, dtype=float)
        if block.ndim == 1:
            block = block[:, None]
        if block.shape[0] != self.n:
            raise ValueError("block row dimension mismatch")
        if self.flops is not None:
            self.flops.event("implicit_block_apply")
            self.flops.add("implicit_apply", (1.0 + 4.0 * self.rank) * block.size)
        if self.s is not None:
            corr = self.U @ (self.s[:, None] * (self.U.T @ block))
        elif transpose:
            corr = self.V @ (self.U.T @ block)
        else:
            corr = self.U @ (self.V.T @ block)
        return self.d[:, None] * block + corr


# ---------------------------------------------------------------------------
# orthogonalization and truncated SVD
# ---------------------------------------------------------------------------

def orthonormalize_against(Q, Z, flops=None):
    """Extend the orthonormal basis Q by the fresh directions of Z.

    Two-pass classical Gram-Schmidt against Q, then a pivoted QR of the
    remainder, each column divided by its 2-norm in Z.  Directions whose
    scaled pivot falls below ``QR_NULL_REL`` are numerical noise and are
    dropped (each column is judged by its own size, not the block's); the
    basis is never grown past n.  Without the drop rule, no-truncation runs
    keep resurrecting roundoff directions once the basis saturates and the
    combined basis stops being orthonormal.

    Returns (Q_new, S, R) with Z ~= Q @ S + Q_new @ R: R is un-pivoted to
    Z's column order, and Q_new keeps the column signs LAPACK gives it.
    """
    n, m = Z.shape
    nq = Q.shape[1]
    max_new = n - nq
    # with an empty Q the projections subtract exact zeros
    S = Q.T @ Z
    Zp = Z - Q @ S
    S2 = Q.T @ Zp
    Zp = Zp - Q @ S2
    S = S + S2
    if flops is not None:
        flops.add("orthogonalize", 8.0 * n * nq * m + 2.0 * n * m * m)
    empty = (np.zeros((n, 0)), S, np.zeros((0, m)))
    if m == 0 or max_new <= 0:
        return empty
    # each column's own 2-norm, recomputed by hypot where its squares
    # underflowed (entries below about 1e-154); remainders below the smallest
    # normal number carry no relative precision, hence the floor
    scale = np.linalg.norm(Z, axis=0)
    low = scale < 1e-150
    scale[low] = np.hypot.reduce(Z[:, low], axis=0)
    scale = np.maximum(scale, np.finfo(float).tiny / QR_NULL_REL)
    Qf, Rf, piv = sla.qr(Zp / scale, mode="economic", pivoting=True)
    r = min(int(np.sum(np.abs(np.diag(Rf)) > QR_NULL_REL)), max_new)
    if r == 0:
        return empty
    # undo the column pivoting and scaling
    Qh = Qf[:, :r]
    R = np.zeros((r, m))
    R[:, piv] = Rf[:r, :]
    R *= scale
    if nq == 0:
        return Qh, S, R
    # Cleanup pass.  A direction whose scaled pivot sits near the Gram-Schmidt
    # noise floor (about eps) is contaminated by an in-span component of
    # relative size eps / pivot, which can reach percent level at the
    # admission threshold and silently destroys basis orthonormality.
    # Re-project against Q, re-factor, and drop directions that lost most of
    # their length to the projection (they were noise, not content).
    C2 = Q.T @ Qh
    Uf, Tf, piv2 = sla.qr(Qh - Q @ C2, mode="economic", pivoting=True)
    tdiag = np.abs(np.diag(Tf))
    r2 = int(np.sum(tdiag > 0.1))
    if flops is not None:
        flops.add("orthogonalize", 4.0 * n * r * (r + nq))
    if r2 == 0:
        return empty
    T = np.zeros((r2, r))
    T[:, piv2] = Tf[:r2, :]
    return Uf[:, :r2], S + C2 @ R, T @ R


def truncated_svd(M, trunc_rel, flops=None):
    """Truncated SVD of a small core matrix.

    Returns (U, s, V) with M ~= U @ diag(s) @ V.T, the factors as LAPACK
    gives them.  Exact zeros are always dropped; otherwise singular values
    below trunc_rel * s[0] are discarded (values exactly at the threshold are
    kept).
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if flops is not None:
        flops.add("svd", 12.0 * max(M.shape) ** 3)
    if M.size == 0:
        return np.zeros((M.shape[0], 0)), np.zeros(0), np.zeros((M.shape[1], 0))
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    keep = s > 0.0
    if s.size and s[0] > 0.0 and trunc_rel > 0.0:
        keep &= s >= trunc_rel * s[0]
    return U[:, keep], s[keep], Vt[keep].T


# ---------------------------------------------------------------------------
# residual without dense assembly
# ---------------------------------------------------------------------------

def residual_stacks(inst, X):
    """Stacks U_hat, V_hat with U_hat @ V_hat.T == X C X - X E - A X + B.

    With A = diag(delta) - u v^T, B = u u^T, C = v v^T and E = diag(d) - v u^T
    the width is 2*rank + 2: both diagonal actions ride on the factor blocks,
    the quadratic term (X v)(X^T v)^T is rank one, and the two remaining
    rank-one pieces, (X v) u^T from -X E and B, share u and merge.
    """
    u, v = inst.u, inst.v
    L, sig, R = X.left, X.core, X.right
    LS = L * sig[None, :]
    xv = LS @ (R.T @ v)                     # X v, for both X C X and X E
    xtv = R @ (LS.T @ v)                    # X^T v
    # -A X folded through the left factor: (-delta .* LS + u (v^T LS)) R^T
    W1 = -(inst.delta[:, None] * LS) + u[:, None] * (v @ LS)[None, :]
    U_hat = np.column_stack([W1, -LS, xv, xv + u])
    V_hat = np.column_stack([R, inst.d[:, None] * R, xtv, u])
    return U_hat, V_hat


def residual_norm(inst, X, flops=None):
    """Frobenius norm of X C X - X E - A X + B for a low-rank X.

    Every term is a short combination of outer products of available n-vectors
    with the factor columns of X, so the residual is ||U_hat @ V_hat.T||_F with
    stacks of width 2*rank+2.  With U_hat = Q R that is ||V_hat @ R.T||_F: one
    R-only QR and one product, no Q formed.  A Gram-matrix evaluation would
    cancel catastrophically at machine-level residuals.

    Returns (absolute_norm, normalized_norm); the normalization divides by
    ||B||_F = u^T u, which is n for the original u = e and sum(q) after
    balancing.
    """
    if X.n != inst.n:
        raise ValueError("solution dimension does not match the instance")
    b_fro = float(inst.u @ inst.u)
    U_hat, V_hat = residual_stacks(inst, X)
    if flops is not None:
        w = U_hat.shape[1]
        flops.add("residual", 4.0 * inst.n * w * w)
    R = np.linalg.qr(U_hat, mode="r")
    absnorm = float(np.linalg.norm(V_hat @ R.T))
    return absnorm, absnorm / b_fro
