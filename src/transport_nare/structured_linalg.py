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
from scipy.linalg import lapack

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
# Householder QR of a column stack
# ---------------------------------------------------------------------------

#: Block size of the compact-WY QR (dgeqrt) of the stacks, capped by the
#: stack's shape.  8 measured best, or tied with 16, at n = 4096 on widths
#: 33 to 76.
_QRT_NB = 8


def _lapack(routine, *args, **kwargs):
    """Call a LAPACK QR routine; its outputs before info."""
    *out, info = routine(*args, **kwargs)
    if info < 0:
        raise ValueError("illegal value in %d-th argument of internal %s"
                         % (-info, routine.__name__))
    return out


class _StackQR:
    """Householder QR of a column stack, factored in the array it was built in.

    The caller writes the stack into a Fortran-ordered n x w array (``a``)
    and hands it over; dgeqrt overwrites it with R and the reflectors, so
    the stack is never copied.  Its recursive level-3 panel and compact-WY
    block reflectors (``t``) stay fast at the widths here, where dgeqrf
    would run its unblocked level-2 code (its blocked path starts at 128
    columns), and it keeps its workspace internal: no size query pushes the
    stack through f2py once more.  ``q_times`` applies the thin Q through
    the block reflectors with dgemqrt, so Q is never formed.  The QR is
    unpivoted: Q R reproduces a rank-deficient stack too, and every caller
    sets its rank afterwards from a small core.  A non-finite stack raises
    ValueError, as ``scipy.linalg.qr`` does.
    """

    def __init__(self, a):
        if not a.flags.f_contiguous:
            raise ValueError("the stack must be a Fortran-ordered array")
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")
        n, w = a.shape
        nb = max(1, min(_QRT_NB, n, w))
        self.a, self.t = _lapack(lapack.dgeqrt, nb, a, overwrite_a=1)

    def r(self):
        """R, min(n, w) x w, equal to ``scipy.linalg.qr``'s economic R up to
        roundoff."""
        return np.triu(self.a[:min(self.a.shape)])

    def q_times(self, c):
        """Thin Q (n x min(n, w)) times ``c``, applied through the block
        reflectors."""
        k = self.t.shape[1]
        out = np.zeros((self.a.shape[0], c.shape[1]), order="F")
        out[:k] = c
        return _lapack(lapack.dgemqrt, self.a[:, :k], self.t, out, overwrite_c=1)[0]


# ---------------------------------------------------------------------------
# outer doubling iterate
# ---------------------------------------------------------------------------

class ImplicitIterate:
    """The outer doubling iterate E_k (or F_k), stored as diagonal plus low rank.

    Level 0 is the fused base operator diag(a) + p w^T.  Squaring keeps that
    shape, (D + U V^T)^2 = D^2 + (D U + U V^T U) V^T + U (D V)^T, so level k
    holds the vector d_k = a^(2^k) and two n x r factors, recompressed after
    each update by a plain QR of both stacks (``_StackQR``, blocked dgeqrt,
    each stack written straight into the array it factors) and an SVD of the
    small core truncated at ``trunc_rel``, the same update ``extend_triple``
    makes to the H/G triples.  A block apply costs O(n r) per column at every
    level.

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
        """Advance one level: new operator = old @ old + u @ v.T.

        The stacks [D U + U (V^T U), U, u] and [V, D V, v] are each written
        into a Fortran-ordered array and factored there (U (V^T U) is
        written into its columns and D U added in place), and the new
        factors Q_l (Uc diag(sc)) and Q_r Vc are applied through the block
        reflectors, so neither n x w Q is formed.
        """
        if self.s is not None:
            raise ValueError("a symmetric iterate advances by push_symmetric")
        self._advance(u, v)
        d, U, V = self.d, self.U, self.V
        r = U.shape[1]
        w = 2 * r + u.shape[1]
        a = np.empty((self.n, w), order="F")
        np.matmul(U, V.T @ U, out=a[:, :r])
        a[:, :r] += d[:, None] * U
        a[:, r:2 * r], a[:, 2 * r:] = U, u
        left = _StackQR(a)
        a = np.empty((self.n, w), order="F")
        a[:, :r], a[:, 2 * r:] = V, v
        np.multiply(d[:, None], V, out=a[:, r:2 * r])
        right = _StackQR(a)
        Uc, sc, Vc = truncated_svd(left.r() @ right.r().T, self.trunc_rel, flops=self.flops)
        self.U = left.q_times(Uc * sc[None, :])
        self.V = right.q_times(Vc)
        self.d = d * d
        if self.flops is not None:
            self.flops.add("implicit_update", self.n * r * (4.0 * r + 2.0) + 2.0 * w ** 3
                           + 4.0 * self.n * w * w
                           + 4.0 * self.n * min(self.n, w) * sc.size)

    def push_symmetric(self, z, dup):
        """Advance a symmetric iterate one level: old @ old + z diag(dup) z^T.

        The first call reads the level-0 correction p w^T, where p is a
        multiple of w on a balanced instance, as (p.w) w w^T / (w.w).  The
        stack [D U, U, z] is written into a Fortran-ordered array and
        factored there, and the new U = Q W, with W the kept eigenvectors of
        the small core, is applied through the block reflectors, so the
        n x w Q is never formed.
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
        a = np.empty((self.n, 2 * r + z.shape[1]), order="F")
        np.multiply(d[:, None], U, out=a[:, :r])
        a[:, r:2 * r], a[:, 2 * r:] = U, z
        K = _StackQR(a)
        R = K.r()
        R0, R1s, R2 = R[:, :r], R[:, r:2 * r] * s[None, :], R[:, 2 * r:]
        C = R0 @ R1s.T
        lam, W = np.linalg.eigh(C + C.T + R1s @ R1s.T + (R2 * dup[None, :]) @ R2.T)
        big = np.abs(lam).max(initial=0.0)
        keep = (lam != 0.0) & (np.abs(lam) >= self.trunc_rel * big)
        self.U, self.s = K.q_times(W[:, keep]), lam[keep]
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
# basis extension and truncated SVD
# ---------------------------------------------------------------------------

def orthonormalize_against(Q, Z, flops=None):
    """Householder QR of the stack [Q, Z], factored where it is written.

    Q (n x m, orthonormal) and Z (n x w) are written into one Fortran-ordered
    array and factored there by ``_StackQR``, which is returned: [Q, Z] =
    Qf R with Qf n x min(n, m + w) orthonormal, so span(Qf) holds span(Q)
    and the fresh directions of Z, and R[:, :m] and R[:, m:] are the
    coordinates of Q and Z in it.  No direction is dropped: one of Z that
    lies in span(Q), or is only roundoff, gets a tiny row of R, Qf stays
    orthonormal to roundoff whatever the stack's rank, and the caller's
    truncated SVD of a small core built from R sets the rank.  Qf never has
    more than n columns.
    """
    n, m = Q.shape
    a = np.empty((n, m + Z.shape[1]), order="F")
    a[:, :m], a[:, m:] = Q, Z
    if flops is not None:
        flops.add("orthogonalize", 2.0 * n * a.shape[1] ** 2)
    return _StackQR(a)


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
    """Yield U_hat, then V_hat, with U_hat @ V_hat.T == X C X - X E - A X + B.

    With A = diag(delta) - u v^T, B = u u^T, C = v v^T and E = diag(d) - v u^T
    the width is 2*rank + 2: both diagonal actions ride on the factor blocks,
    the quadratic term (X v)(X^T v)^T is rank one, and the two remaining
    rank-one pieces, (X v) u^T from -X E and B, share u and merge.  U_hat is
    written straight into a Fortran-ordered array, ready for ``_StackQR`` to
    factor in place; V_hat is formed only when asked for, after the caller is
    done with U_hat, so the two are never live together.
    """
    u, v = inst.u, inst.v
    L, sig, R = X.left, X.core, X.right
    r = sig.size
    LS = L * sig[None, :]
    xv = LS @ (R.T @ v)                     # X v, for both X C X and X E
    xtv = R @ (LS.T @ v)                    # X^T v
    vLS = v @ LS
    U_hat = np.empty((inst.n, 2 * r + 2), order="F")
    W1, NLS = U_hat[:, :r], U_hat[:, r:2 * r]
    NLS[...] = LS
    del LS
    # -A X folded through the left factor: (-delta .* LS + u (v^T LS)) R^T.
    # The blocks are built from LS's copy in place, the outer product added
    # through the C-ordered transposed view: a ufunc writing across layouts
    # runs buffered, and each fresh n x r temporary faults in new pages.
    np.multiply(NLS, -inst.delta[:, None], out=W1)
    np.add(W1.T, vLS[:, None] * u, out=W1.T)
    np.negative(NLS, out=NLS)
    U_hat[:, 2 * r] = xv
    U_hat[:, 2 * r + 1] = xv + u
    del W1, NLS, xv
    yield U_hat
    del U_hat
    yield np.hstack([R, inst.d[:, None] * R, xtv[:, None], u[:, None]])


def residual_norm(inst, X, flops=None):
    """Frobenius norm of X C X - X E - A X + B for a low-rank X.

    Every term is a short combination of outer products of available n-vectors
    with the factor columns of X, so the residual is ||U_hat @ V_hat.T||_F with
    stacks of width 2*rank+2 (``residual_stacks``).  With U_hat = Q R that is
    ||V_hat @ R.T||_F: one QR of U_hat, factored in the array it is written
    in and of which only R is read, and one product, no Q formed.  A
    Gram-matrix evaluation would cancel catastrophically at machine-level
    residuals.

    Returns (absolute_norm, normalized_norm); the normalization divides by
    ||B||_F = u^T u, which is n for the original u = e and sum(q) after
    balancing.
    """
    if X.n != inst.n:
        raise ValueError("solution dimension does not match the instance")
    b_fro = float(inst.u @ inst.u)
    stacks = residual_stacks(inst, X)
    R = _StackQR(next(stacks)).r()
    if flops is not None:
        flops.add("residual", 4.0 * inst.n * R.shape[1] ** 2)
    absnorm = float(np.linalg.norm(next(stacks) @ R.T))
    return absnorm, absnorm / b_fro
