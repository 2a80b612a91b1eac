"""Structured O(n) kernels shared by all solvers.

Everything here exploits the same shape: coefficient matrices that are diagonal
plus a rank-one outer product.  Shifted inverses then collapse to Sherman-Morrison
corrections over diagonal solves, the four level-0 doubling matrices to closed
forms in four scaled n-vectors and one scalar, the outer doubling iterates stay
diagonal plus low rank, and residuals of low-rank iterates can be evaluated
without ever forming an n-by-n matrix.

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
    "Correction",
    "ShiftedSolver",
    "BaseOperators",
    "ImplicitIterate",
    "FlopModel",
    "gamma_select",
    "truncated_svd",
    "orthonormalize_against",
    "residual_norm",
]

#: A Sherman-Morrison denominator (|1 - v^T D^-1 u|, or level 0's kappa) below
#: this has vanished, which for transport instances happens only toward the
#: critical parameter pair.
SMW_DENOM_TOL = 1e-14

#: ``LowRankBilinear.validate``'s tolerance for every invariant it checks.
VALIDATE_TOL = 1e-12

#: Entries per row block of ``LowRankBilinear.min_entry`` (2 MB of doubles).
#: On a rank-46 triple at n = 4096 (one BLAS thread) it held 3.6 MB and took
#: 0.061 s; blocks of 2^22 entries, the previous one held while the next
#: was formed, held 68.6 MB and took 0.082 s.
MIN_ENTRY_BLOCK = 2 ** 18


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
        """Exact elementwise minimum, formed over row blocks of about
        ``MIN_ENTRY_BLOCK`` entries, each dropped before the next is formed,
        so it holds the scaled right factor and one block: O(n * rank)."""
        n = self.n
        best = np.inf
        step = max(1, MIN_ENTRY_BLOCK // max(1, n))
        scaled = self.core[:, None] * self.right.T
        for lo in range(0, n, step):
            block = self.left[lo:lo + step] @ scaled
            best = min(best, float(block.min()))
            del block
        return best

    def orthonormality_defect(self):
        r = self.rank
        if r == 0:
            return 0.0
        rl = self.left.T @ self.left - np.eye(r)
        rr = self.right.T @ self.right - np.eye(r)
        return max(np.abs(rl).max(initial=0.0), np.abs(rr).max(initial=0.0))

    def validate(self):
        """Check the solver-iterate invariants (orthonormal factors, sorted core)."""
        if self.orthonormality_defect() > VALIDATE_TOL:
            raise ValueError("factor blocks are not column-orthonormal")
        if np.any(self.core < -VALIDATE_TOL):
            raise ValueError("core entries must be nonnegative")
        if np.any(np.diff(self.core) > VALIDATE_TOL):
            raise ValueError("core entries must be nonincreasing")
        return self


class Correction:
    """A rank correction ``left @ core @ right.T`` handed to ``extend_triple``
    or ``ImplicitIterate.push_update``.

    ``core`` is a full l x m matrix.  The correction is consumed by the
    kernel it is handed to: each factor is released (set to None) once its
    stack holds a copy, so a factor the caller keeps no other reference to
    is freed there, before the next stack is allocated, and one the caller
    still references stays alive.
    """

    __slots__ = ("left", "core", "right")

    def __init__(self, left, core, right):
        self.left, self.core, self.right = left, core, right


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

    Counters are keyed by (iteration, kernel label).  ``event`` counts one
    discrete happening per call (a block application of an implicit operator),
    which acceptance checks assert on exactly.
    """

    def __init__(self):
        self.flops = {}
        self.events = {}
        self.k = 0

    def add(self, label, amount):
        key = (self.k, label)
        self.flops[key] = self.flops.get(key, 0.0) + float(amount)

    def event(self, label):
        key = (self.k, label)
        self.events[key] = self.events.get(key, 0) + 1

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
        self._dv = self.inv_d * v
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
    self-transpose down to the last bit.  No solver calls it: it is the
    Sherman-Morrison reference that ``BaseOperators``' closed form and the
    round-trip checks are tested against.
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
        self._w = _RankOneShifted(inst.delta + gamma, rs * u, rs * v)
        self._v = _RankOneShifted(inst.d + gamma, rt * v, rt * u)

    def _pick(self, which):
        try:
            return {"E": self._eg, "A": self._ag, "W": self._w, "V": self._v}[which]
        except KeyError:
            raise ValueError("which must be one of %r" % (self.WHICH,)) from None

    def solve(self, which, block, transpose=False):
        block = np.atleast_2d(np.asarray(block, dtype=float))
        if block.shape[0] != self.n:
            raise ValueError("block has %d rows, expected %d" % (block.shape[0], self.n))
        return self._pick(which).solve(block, transpose)

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
    """Level 0 of the doubling, E0, F0, H0 and G0, in closed form.

    With Eg = E + gamma I and V, W as in ``ShiftedSolver``, level 0 is
    E0 = I - 2 gamma V^-1, F0 = I - 2 gamma W^-1, H0 = 2 gamma W^-1 B Eg^-1
    and G0 = 2 gamma Eg^-1 C W^-1.  With D = diag(d) + gamma I and
    L = diag(delta) + gamma I, Sherman-Morrison reduces all four to the
    scaled vectors x = D^-1 v, y = D^-1 u, p = L^-1 u, q = L^-1 v and the
    scalar kappa = 1 - u^T x - v^T p, with g = 2 gamma / kappa:

        E0 = I - 2 gamma D^-1 - g x y^T,     F0 = I - 2 gamma L^-1 - g p q^T,
        H0 = g p y^T,                        G0 = g x q^T.

    ``E`` and ``F`` hold E0 and F0 as an ``ImplicitIterate`` level, (d, U, s,
    V) for diag(d) + U diag(s) V^T, and ``H`` and ``G`` hold H0 and G0 as
    triples (U, s, V), every column a unit vector and each core g times the
    product of the two norms.  On a balanced instance (u is v) y is x and q
    is p, so E0 and F0 come out with V is U, and G0 is H0^T to the bit.
    Raises NearCriticalError if kappa is below ``SMW_DENOM_TOL``.  ``apply``
    is ``ImplicitIterate.apply`` on E0 or F0.
    """

    def __init__(self, inst, gamma):
        self.n = inst.n
        u, v = inst.u, inst.v
        dg, lg = inst.d + gamma, inst.delta + gamma
        x, p = v / dg, u / lg
        kappa = 1.0 - u @ x - v @ p
        if kappa < SMW_DENOM_TOL:
            raise NearCriticalError(
                "level-0 denominator %.3e is numerically singular; the instance "
                "is at or near the critical parameter pair" % kappa)
        g = 2.0 * gamma / kappa
        X, n_x = _unit(x)
        P, n_p = _unit(p)
        Y, n_y = (X, n_x) if u is v else _unit(u / dg)
        Q, n_q = (P, n_p) if u is v else _unit(v / lg)
        self.E = 1.0 - 2.0 * gamma / dg, X, np.array([-g * (n_x * n_y)]), Y
        self.F = 1.0 - 2.0 * gamma / lg, P, np.array([-g * (n_p * n_q)]), Q
        self.H = P, np.array([g * (n_p * n_y)]), Y
        self.G = X, np.array([g * (n_x * n_q)]), Q

    def apply(self, name, block, transpose=False):
        return ImplicitIterate(getattr(self, name)).apply(block, transpose)


def _unit(x):
    """x / ||x|| as an n x 1 column, and ||x||."""
    nrm = np.linalg.norm(x)
    return (x / nrm)[:, None], nrm


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
    ValueError, as ``scipy.linalg.qr`` does.  The check reads only the
    factored top min(n, w) x w block, after dgeqrt, not the whole stack: a
    NaN or inf at or below a column's diagonal enters the norm of that
    column's reflector, which puts it on R's diagonal, and the reflector
    products carry it into the columns to its right (0 * inf is NaN); a
    column past n lies in the top block whole.  So it always lands in R.
    """

    def __init__(self, a):
        if not a.flags.f_contiguous:
            raise ValueError("the stack must be a Fortran-ordered array")
        n, w = a.shape
        nb = max(1, min(_QRT_NB, n, w))
        self.a, self.t = _lapack(lapack.dgeqrt, nb, a, overwrite_a=1)
        if not np.isfinite(self.a[:min(n, w)]).all():
            raise ValueError("array must not contain infs or NaNs")

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

    Level k holds d_k = a^(2^k) and a triple (U, s, V) with E_k = diag(d_k) +
    U diag(s) V^T; a symmetric iterate keeps V is U, orthonormal, and a
    signed s.  It starts from level 0 as ``BaseOperators`` holds it
    (``ImplicitIterate(base.E)``): rank one, unit columns, a signed core,
    symmetric on a balanced instance.  With D = diag(d), S = diag(s) and N =
    V^T U, each level's squaring plus its update Z1 C Z2^T (a ``Correction``)
    is one identity,

        (D + U S V^T)^2 + Z1 C Z2^T - D^2 = [D U, U, Z1] K [D V, V, Z2]^T,
        K = [[0, S, 0], [S, S N S, 0], [0, 0, C]],   (2r + l) x (2r + m),

    and in the symmetric case N = I and one stack serves both sides.  Each
    stack is written into a Fortran-ordered array and factored there by
    ``_StackQR``; the small core R_l K R_r^T is truncated (SVD, or ``eigh``
    with signed eigenvalues in the symmetric case) and the kept factors are
    applied through the block reflectors, so no n x w Q is formed.  A block
    apply costs O(n r) per column at every level.

    The truncation is relative to the whole operator, as H's is: a value is
    kept only if it is at least trunc_rel * max(max|d_{k+1}|, the largest
    value), since ||E_{k+1}||_2 is about the larger of the two (``_kept``).
    Measured against the correction alone it kept values down to 2.8e-19
    in E_8 of modified-sda-ls at (4096, 0.9, 0.1), where the correction's
    largest is 1.7e-4 and max|d_8| is 1.  ``screen`` is the matching rule
    for an update before its stacks are built.
    """

    def __init__(self, level0, flops=None, trunc_rel=0.0):
        self.d, self.U, self.s, self.V = level0
        self.n = self.d.size
        self.level = 0
        self.flops = flops
        self.trunc_rel = trunc_rel

    @property
    def rank(self):
        return self.U.shape[1]

    def screen(self, core):
        """The leading part of an update's sorted core that the next push needs.

        For an update (E_k Z1) core (E_k^T Z2)^T with Z1 and Z2 orthonormal,
        as every doubling step's is, ||E_k Z1||_2 <= ||E_k||_2 <= b = max|d_k|
        + max|s_k| (U and V are orthonormal), so leaving out a block of the
        core whose absolute entries sum to mu moves the update by at most
        mu * b^2 in the 2-norm.  Keeps the fewest leading rows and
        columns that leave at most tau = trunc_rel * max|d_{k+1}| out: the
        trailing rows and the trailing columns get tau / 2 each, a diagonal
        core (given 1-d, as its diagonal) all of tau on its tail.  So the
        screen moves E_{k+1} by at most tau, and the push's own truncation
        by less than trunc_rel * max(max|d_{k+1}|, its largest value).  A
        core sorted by decreasing weight, as the steps' are, loses the most.
        Returns the kept count of a diagonal core and (rows, columns) of a
        full one, so the caller passes prefix views: no copy and no n-wide
        pass.  At trunc_rel = 0 the whole core is kept; a NaN in the core
        keeps all before it, so the push still sees it.
        """
        if not self.trunc_rel:
            return core.size if core.ndim == 1 else core.shape
        dmax = np.abs(self.d).max(initial=0.0)
        tau = self.trunc_rel * (dmax * dmax)
        bound = dmax + np.abs(self.s).max(initial=0.0)
        mass = np.abs(core) * (bound * bound)
        if core.ndim == 1:
            return _lead(mass, tau)
        return _lead(mass.sum(axis=1), tau / 2), _lead(mass.sum(axis=0), tau / 2)

    def push_update(self, update):
        """Advance one level: new operator = old @ old + update.left @
        update.core @ update.right.T, by two stacks; a symmetric iterate
        comes out in general form.  Kept values are at least trunc_rel *
        max(max|d_{k+1}|, the largest); a caller whose factors are E_k and
        E_k^T times orthonormal columns may first cut the core to its
        ``screen``.  Consumes the ``Correction`` as ``extend_triple``
        does: each factor is released once its stack holds a copy."""
        self._push(update, sym=False)

    def push_symmetric(self, z, dup):
        """Advance a symmetric iterate one level: old @ old + z diag(dup) z^T.

        Kept eigenvalues are at least trunc_rel * max(max|d_{k+1}|, the
        largest magnitude); a caller whose z is E_k times orthonormal
        columns may first cut dup to its ``screen``.  Raises ValueError
        unless the iterate is symmetric (V is U), which at level 0 it is on
        a balanced instance only.  z is left to the caller.
        """
        if self.V is not self.U:
            raise ValueError("push_symmetric needs a symmetric iterate; "
                             "level 0 is one on a balanced instance only")
        self._push(Correction(z, np.diag(dup), z), sym=True)

    def _push(self, update, sym):
        """Advance one level: new operator = old @ old + Z1 C Z2^T, where
        ``update`` is the ``Correction`` (Z1, C, Z2).

        ``sym`` (V is U, Z2 is Z1) shares one stack, and its R, between both
        sides.  The small core's values are kept by ``_kept`` against the
        reference max|d_{k+1}|: a value below trunc_rel * max(max|d_{k+1}|,
        the largest value) is dropped, so E_{k+1} is truncated relative to
        the operator it stores; at trunc_rel = 0 only exact zeros go.  The
        update is taken whole: screening it (``screen``) is the caller's,
        which knows its factors.  Every n-wide block goes at its last read
        (peak memory): the old U and Z1 once the left stack, which holds
        copies, is factored, before the right stack is allocated; the old V
        and Z2 once the right one is; the left stack once the new U is
        applied from it, before the new V is formed.  A non-finite stack
        raises ValueError.  Raised by the left stack, it leaves the iterate
        and the update as they were; raised by the right one, it leaves the
        iterate and the update consumed, not to be read again, as
        ``extend_triple`` leaves its X and Z.
        """
        n, r = self.n, self.rank
        cz = update.core
        if (update.left.shape[0] != n or update.right.shape[0] != n
                or cz.shape != (update.left.shape[1], update.right.shape[1])):
            raise ValueError("update factors n x l and n x m need an l x m core")
        d, s = self.d, self.s
        wl, wr = 2 * r + cz.shape[0], 2 * r + cz.shape[1]
        if not (wl and wr):
            # a side without columns: E_k = D_k and the update is empty (a
            # screened-out one too), so E_{k+1} = D_k^2 and nothing is stacked
            self.U = self.V = np.zeros((n, 0))
            update.left = update.right = None
            self.s = np.zeros(0)
            self.d = d * d
            self.level += 1
            return
        dmax = np.abs(d).max()
        ref = dmax * dmax       # max|d_{k+1}|: rounding is monotone

        def stack(X, z):
            a = np.empty((n, 2 * r + z.shape[1]), order="F")
            np.multiply(d[:, None], X, out=a[:, :r])
            a[:, r:2 * r], a[:, 2 * r:] = X, z
            return _StackQR(a)

        K = np.zeros((wl, wr))
        K[:r, r:2 * r] = K[r:2 * r, :r] = np.diag(s)
        K[r:2 * r, r:2 * r] = (np.diag(s * s) if sym
                               else s[:, None] * (self.V.T @ self.U) * s)
        K[2 * r:, 2 * r:] = cz
        left = stack(self.U, update.left)
        self.U = update.left = None
        right = left if sym else stack(self.V, update.right)
        self.V = update.right = None
        R = left.r()
        M = R @ K
        if not sym:
            del R       # the left R is not held with the right one (peak memory)
            R = right.r()
        M = M @ R.T
        if sym:
            lam, W = np.linalg.eigh(M)
            keep = _kept(np.abs(lam), self.trunc_rel, ref)
            Wl, self.s, Wr = W[:, keep], lam[keep], None
        else:
            Wl, self.s, Wr = truncated_svd(M, self.trunc_rel, flops=self.flops, ref=ref)
        del K, M, R     # not held through the reflector applications (peak memory)
        self.U = left.q_times(Wl)
        del left, Wl
        self.V = self.U if sym else right.q_times(Wr)
        self.d = d * d
        self.level += 1
        if self.flops is not None:
            # per stack of width w: its D X block, its QR and one reflector
            # application; then V^T U (general case only) and R_l K R_r^T
            ml, mr, k = min(n, wl), min(n, wr), self.s.size
            stacks = n * (r + 2.0 * wl * wl + 2.0 * ml * k) + (0.0 if sym else n * (
                r + 2.0 * wr * wr + 2.0 * mr * k + 2.0 * r * r))
            self.flops.add("implicit_update", stacks + 2.0 * ml * wr * (wl + mr))
            if sym:
                self.flops.add("eig", 9.0 * ml ** 3)

    def apply(self, block, transpose=False):
        block = np.asarray(block, dtype=float)
        if block.ndim == 1:
            block = block[:, None]
        if block.shape[0] != self.n:
            raise ValueError("block row dimension mismatch")
        if self.flops is not None:
            self.flops.event("implicit_block_apply")
            self.flops.add("implicit_apply", (1.0 + 4.0 * self.rank) * block.size)
        left, right = (self.V, self.U) if transpose else (self.U, self.V)
        # the product is written in the block's own layout and d * block is
        # added in place: NumPy buffers an add across layouts (n = 4096,
        # rank 11, 12 columns, 1 BLAS thread: 321 -> 158 us, same bits)
        out = np.matmul(left, self.s[:, None] * (right.T @ block),
                        out=np.empty_like(block))
        out += self.d[:, None] * block
        return out


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


def truncated_svd(M, trunc_rel, flops=None, ref=0.0):
    """Truncated SVD of a small core matrix.

    Returns (U, s, V) with M ~= U @ diag(s) @ V.T, the factors as LAPACK
    gives them.  Exact zeros are always dropped; otherwise singular values
    below trunc_rel * max(ref, s[0]) are discarded (values exactly at the
    threshold are kept).  The H/G cores pass no ``ref``, so their values
    are dropped relative to s[0]; ``ImplicitIterate``'s push passes
    max|d_{k+1}|.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if flops is not None:
        flops.add("svd", 12.0 * max(M.shape) ** 3)
    if M.size == 0:
        return np.zeros((M.shape[0], 0)), np.zeros(0), np.zeros((M.shape[1], 0))
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    keep = _kept(s, trunc_rel, ref)
    return U[:, keep], s[keep], Vt[keep].T


def _kept(mag, trunc_rel, ref):
    """The one keep rule: nonzero magnitudes at least trunc_rel times the
    larger of ``ref`` and the largest magnitude.

    ``ref`` is the magnitude of what the kept values are added to: 0 for a
    factor triple (H_k, G_k), which is its core alone, and max|d_{k+1}| for
    the correction of an outer iterate E_{k+1} = diag(d_{k+1}) + U S V^T,
    so that the drop is relative to the whole operator.
    """
    return (mag > 0.0) & (mag >= trunc_rel * max(ref, mag.max(initial=0.0)))


def _lead(mass, limit):
    """The fewest leading entries of a nonnegative ``mass`` whose trailing
    rest sums to at most ``limit`` (a NaN sum is over it)."""
    tail = np.cumsum(mass[::-1])[::-1]
    return int(np.count_nonzero(~(tail <= limit)))


# ---------------------------------------------------------------------------
# residual without dense assembly
# ---------------------------------------------------------------------------

#: Entries per row block of V_hat in ``residual_norm``: 2^15 (256 KB, and as
#: much again for the block's product with R^T).  Measured at 1 BLAS thread
#: on random rank-r triples, median ms per call at n = 4096, r = 12 and 45,
#: and n = 16384, r = 45: 1.14, 8.55 and 42.2 for 2^15 entries; 2^13 and
#: 2^17 were 3% to 53% slower, 2^11 16% to 45%, one block of all rows 15% to
#: 52%.
RESIDUAL_BLOCK = 2 ** 15


def residual_stacks(inst, X, scale=None):
    """U_hat and a row builder of V_hat, U_hat @ V_hat.T == X C X - X E - A X + B.

    With A = diag(delta) - u v^T, B = u u^T, C = v v^T and E = diag(d) - v u^T
    the four rank-one terms X C X, (X v) u^T from -X E, u (X^T v)^T from -A X
    and B merge into one (Lu, SIAM J. Matrix Anal. Appl. 26, 2005):

        X C X - X E - A X + B = (X v + u)(X^T v + u)^T - diag(delta) X - X diag(d),

    and both diagonal actions ride on the factor blocks of X = L diag(sig)
    R^T, so U_hat = [-delta .* L sig, -L sig, a] and V_hat = [R, d .* R, b]
    with a = X v + u and b = X^T v + u, 2*rank + 1 columns wide.  Returns
    (U_hat, v_rows).  U_hat is written straight into a Fortran-ordered
    array, ready for ``_StackQR`` to factor in place, with no n-wide
    temporary.  ``v_rows(lo, hi)`` builds rows lo:hi of V_hat from X's right
    factor and the n-vector b, so V_hat need never exist whole.

    With a row ``scale`` the stacks are those of diag(scale) X diag(scale):
    the scaled left factor is written straight into its block of U_hat, as
    (L .* scale) .* sig, the two roundings of scaling the factor first, and
    only the scaled right factor is formed.
    """
    u, v, d = inst.u, inst.v, inst.d
    L, sig, R = X.left, X.core, X.right
    r = sig.size
    U_hat = np.empty((inst.n, 2 * r + 1), order="F")
    W1, NLS, a = U_hat[:, :r], U_hat[:, r:2 * r], U_hat[:, 2 * r]
    if scale is None:
        np.multiply(L, sig, out=NLS)              # L diag(sig), in its block
    else:
        np.multiply(L, scale[:, None], out=NLS)
        NLS *= sig
        R = R * scale[:, None]
    np.matmul(NLS, R.T @ v, out=a)                # X v
    a += u
    b = R @ (NLS.T @ v)                           # X^T v
    b += u
    np.multiply(NLS, -inst.delta[:, None], out=W1)
    np.negative(NLS, out=NLS)

    def v_rows(lo, hi):
        block = np.empty((hi - lo, 2 * r + 1))
        block[:, :r] = R[lo:hi]
        np.multiply(d[lo:hi, None], R[lo:hi], out=block[:, r:2 * r])
        block[:, 2 * r] = b[lo:hi]
        return block

    return U_hat, v_rows


def residual_norm(inst, X, flops=None, scale=None):
    """Frobenius norm of X C X - X E - A X + B for a low-rank X.

    The residual is two diagonal actions on X plus one rank-one term
    (X v + u)(X^T v + u)^T, so it is ||U_hat @ V_hat.T||_F with stacks of
    width 2*rank+1 (``residual_stacks``).  With U_hat = Q R that is
    ||V_hat @ R.T||_F: one QR of U_hat, factored in the array it is written
    in and of which only R is read, and one product, no Q formed.  U_hat is
    released once R is read, and the product is summed over row blocks of
    V_hat of about ``RESIDUAL_BLOCK`` entries, each built as it is used: no
    n-wide array but U_hat exists.  A Gram-matrix evaluation would cancel
    catastrophically at machine-level residuals.

    With a row ``scale`` it is the residual of diag(scale) X diag(scale),
    to the bit that of the triple scaled first: modified-sda-ls judges its
    balanced iterate this way with ``unbalance_scale``, so the unbalanced
    left factor is only ever written into U_hat and the right one is the
    one n-wide block the call adds.

    Returns (absolute_norm, normalized_norm); the normalization divides by
    ||B||_F = u^T u, which is n for the original u = e and sum(q) after
    balancing.
    """
    if X.n != inst.n:
        raise ValueError("solution dimension does not match the instance")
    n = inst.n
    b_fro = float(inst.u @ inst.u)
    U_hat, v_rows = residual_stacks(inst, X, scale)
    R = _StackQR(U_hat).r()
    del U_hat
    w = R.shape[1]
    if flops is not None:
        flops.add("residual", 4.0 * n * w ** 2)
    step = max(1, RESIDUAL_BLOCK // w)
    sq = 0.0
    for lo in range(0, n, step):
        p = v_rows(lo, min(n, lo + step)) @ R.T
        sq += float(np.vdot(p, p))
    absnorm = float(np.sqrt(sq))
    return absnorm, absnorm / b_fro
