"""Transport-theory Riccati instances.

A particle-transport discretization with n angular nodes omega_i and weights
c_i yields the nonsymmetric algebraic Riccati equation

    X C X - X E - A X + B = 0,
    A = diag(delta) - e q^T,  B = e e^T,  C = q q^T,  E = diag(d) - q e^T,

with delta_i = 1/(c omega_i (1+alpha)), d_i = 1/(c omega_i (1-alpha)) and
q_i = c_i / (2 omega_i).  Physical parameters: average number of secondaries
0 < c <= 1 and angular shift 0 <= alpha < 1; c = 1 with alpha = 0 is the
critical pair where the underlying block matrix turns singular.

This module builds instances from parameters and quadratures, applies the
balancing similarity by diag(sqrt(q)) that symmetrizes the coefficients, and
assembles small dense realizations for the oracle solvers.  Instances are
immutable value objects; all operations are pure.
"""

import io
import warnings
from dataclasses import dataclass

import numpy as np

from .structured_linalg import LowRankBilinear

__all__ = [
    "DENSE_CAP",
    "TransportParams",
    "Quadrature",
    "NareInstance",
    "BalancedInstance",
    "gauss_legendre",
    "build_instance",
    "make_instance",
    "balance",
    "unbalance_solution",
    "assemble_dense",
    "write_instance",
    "read_instance",
]

#: dense assembly exists only to support oracles and tests; this cap keeps an
#: accidental O(n^2) allocation at scale from sailing through silently.
DENSE_CAP = 512

_FORMAT_HEADER = "# transport-nare instance format 1"


@dataclass(frozen=True)
class TransportParams:
    """Physical parameters (c, alpha) and the problem dimension n."""

    c: float
    alpha: float
    n: int

    def __post_init__(self):
        if not (0.0 < self.c <= 1.0):
            raise ValueError("c must lie in (0, 1], got %r" % (self.c,))
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError("alpha must lie in [0, 1), got %r" % (self.alpha,))
        if int(self.n) != self.n or self.n < 1:
            raise ValueError("n must be a positive integer, got %r" % (self.n,))

    @property
    def near_singular(self):
        """True at the critical pair c = 1, alpha = 0."""
        return self.c == 1.0 and self.alpha == 0.0


@dataclass(frozen=True)
class Quadrature:
    """Nodes on (0, 1), strictly decreasing, with positive weights summing to 1."""

    omega: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        self.validate()

    @property
    def n(self):
        return self.omega.size

    def validate(self):
        om, w = self.omega, self.weights
        if om.ndim != 1 or w.shape != om.shape or om.size < 1:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if not (np.all(om > 0.0) and np.all(om < 1.0)):
            raise ValueError("nodes must lie strictly inside (0, 1)")
        if not np.all(np.diff(om) < 0.0):
            raise ValueError("nodes must be strictly decreasing")
        if not np.all(w > 0.0):
            raise ValueError("weights must be positive")
        if abs(w.sum() - 1.0) > 1e-14:
            raise ValueError("weights must sum to 1 within 1e-14, got %.17g" % w.sum())
        return self


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, with buffers reused."""
    p0 = np.ones_like(x)
    p1 = x.copy()
    t = np.empty_like(x)
    for j in range(2, n + 1):
        # ((2j-1) x p1 - (j-1) p0) / j, rounded operation by operation as written
        np.multiply(x, 2 * j - 1, out=t)
        t *= p1
        p0 *= j - 1
        np.subtract(t, p0, out=p0)
        p0 /= j
        p0, p1 = p1, p0
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


def gauss_legendre(n):
    """Gauss-Legendre quadrature on (0, 1), nodes sorted descending.

    The ceil(n/2) nonnegative roots of P_n on (-1, 1) start from Tricomi's
    guess (1 - 1/(8n^2) + 1/(8n^3)) cos(pi (4k-1)/(4n+2)) and take Newton
    sweeps on the three-term recurrence until no root moves by more than
    1e-15: three or four sweeps at every n tried, 2 to 16384.  One more
    recurrence pass gives the weights 2/((1-x^2) P_n'(x)^2).  The negative roots are the mirror images,
    so the weights mirror exactly, and for odd n the middle root is exactly 0.
    At n = 4096 the weight sum is exact to < 1e-15.
    """
    if int(n) != n or n < 1:
        raise ValueError("n must be a positive integer")
    if n == 1:
        return Quadrature(np.array([0.5]), np.array([1.0]))
    k = np.arange(1, (n + 1) // 2 + 1)
    x = ((1.0 - 1.0 / (8.0 * n * n) + 1.0 / (8.0 * n ** 3))
         * np.cos(np.pi * (4 * k - 1) / (4 * n + 2)))
    if n % 2:
        x[-1] = 0.0                     # P_n(0) = 0 exactly, so it stays put
    for _ in range(10):
        p, dp = _legendre(n, x)
        dx = p / dp
        x -= dx
        if np.abs(dx).max() <= 1e-15:
            break
    else:
        raise RuntimeError("Gauss-Legendre nodes for n=%d did not converge" % n)
    _, dp = _legendre(n, x)
    w = 1.0 / ((1.0 - x * x) * dp * dp)  # 2/(...) halved for the map to (0,1)
    lo = x[::-1][n % 2:]                # positive roots to mirror, ascending
    om = np.concatenate(((x + 1.0) / 2.0, (1.0 - lo) / 2.0))
    wt = np.concatenate((w, w[::-1][n % 2:]))
    return Quadrature(om, wt)


@dataclass(frozen=True, eq=False)
class NareInstance:
    """Implicit coefficient matrices of one transport Riccati equation.

    Stores only the diagonal vectors and q; A, B, C, E are never formed at
    scale.  ``params`` and ``quad`` are kept for reporting and round-trips.
    """

    delta: np.ndarray
    d: np.ndarray
    q: np.ndarray
    params: TransportParams
    quad: Quadrature

    is_balanced = False

    @property
    def n(self):
        return self.delta.size

    @property
    def near_singular(self):
        return self.params.near_singular


@dataclass(frozen=True, eq=False)
class BalancedInstance:
    """Symmetrized form after the similarity by diag(sqrt(q)).

    The diagonals are unchanged; the rank-one parts of all four coefficients
    become the same outer product phi phi^T with phi_i = sqrt(q_i), so A and E
    turn symmetric and B equals C exactly.
    """

    delta: np.ndarray
    d: np.ndarray
    phi: np.ndarray
    params: TransportParams

    is_balanced = True

    @property
    def n(self):
        return self.delta.size

    @property
    def near_singular(self):
        return self.params.near_singular


def build_instance(params, quad):
    """Instantiate the implicit coefficients from parameters and a quadrature."""
    if quad.n != params.n:
        raise ValueError("quadrature has %d nodes, parameters say n=%d"
                         % (quad.n, params.n))
    om, w = quad.omega, quad.weights
    delta = 1.0 / (params.c * om * (1.0 + params.alpha))
    d = 1.0 / (params.c * om * (1.0 - params.alpha))
    q = w / (2.0 * om)
    if params.near_singular:
        warnings.warn("c = 1 with alpha = 0 is the critical pair; solvers may "
                      "converge slowly or stagnate", RuntimeWarning, stacklevel=2)
    return NareInstance(delta=delta, d=d, q=q, params=params, quad=quad)


def make_instance(n, c, alpha, quad=None):
    """Convenience constructor: parameters plus (by default) Gauss-Legendre nodes."""
    params = TransportParams(c=c, alpha=alpha, n=n)
    return build_instance(params, quad if quad is not None else gauss_legendre(n))


def balance(inst):
    """Similarity-transform an instance so all rank-one parts coincide."""
    if inst.is_balanced:
        return inst
    if np.any(inst.q <= 0.0):
        raise ValueError("balancing requires strictly positive q")
    return BalancedInstance(delta=inst.delta, d=inst.d, phi=np.sqrt(inst.q),
                            params=inst.params)


def unbalance_solution(Xb, phi):
    """Map a balanced-equation solution back to the original variables.

    Rows of both factors are scaled by 1/phi_i and the core is untouched, which
    realizes diag(1/phi) @ Xb @ diag(1/phi).  The scaling deliberately gives up
    column orthonormality of the returned factors.
    """
    phi = np.asarray(phi, dtype=float)
    if Xb.left.shape[0] != phi.size:
        raise ValueError("factor rows (%d) and phi length (%d) disagree"
                         % (Xb.left.shape[0], phi.size))
    inv = 1.0 / phi
    return LowRankBilinear(Xb.left * inv[:, None], Xb.core.copy(),
                           Xb.right * inv[:, None])


def assemble_dense(inst, cap=DENSE_CAP):
    """Dense (A, B, C, E) realization of an instance, for n up to ``cap``."""
    n = inst.n
    if n > cap:
        raise ValueError("dense assembly capped at n=%d (requested %d)" % (cap, n))
    if inst.is_balanced:
        ph = inst.phi
        outer = np.outer(ph, ph)
        A = np.diag(inst.delta) - outer
        E = np.diag(inst.d) - outer
        B = outer.copy()
        C = outer.copy()
    else:
        e = np.ones(n)
        A = np.diag(inst.delta) - np.outer(e, inst.q)
        E = np.diag(inst.d) - np.outer(inst.q, e)
        B = np.ones((n, n))
        C = np.outer(inst.q, inst.q)
    return A, B, C, E


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

def write_instance(params, quad, path):
    """Write the versioned text format: header, n/c/alpha, then node lines."""
    if quad.n != params.n:
        raise ValueError("quadrature size does not match parameters")
    buf = io.StringIO()
    buf.write(_FORMAT_HEADER + "\n")
    buf.write("n %d\n" % params.n)
    buf.write("c %.17g\n" % params.c)
    buf.write("alpha %.17g\n" % params.alpha)
    for om, w in zip(quad.omega, quad.weights):
        # 17 significant digits: enough to round-trip a double exactly
        buf.write("%.16e %.16e\n" % (om, w))
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def read_instance(path):
    """Read and fully validate an instance file; returns (params, quadrature)."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != _FORMAT_HEADER:
        raise ValueError("unrecognized instance file header (expected %r)"
                         % _FORMAT_HEADER)
    head = {}
    idx = 1
    for key in ("n", "c", "alpha"):
        if idx >= len(lines):
            raise ValueError("truncated instance file: missing %r" % key)
        parts = lines[idx].split()
        if len(parts) != 2 or parts[0] != key:
            raise ValueError("expected '%s <value>' on line %d" % (key, idx + 1))
        head[key] = parts[1]
        idx += 1
    n = int(head["n"])
    params = TransportParams(c=float(head["c"]), alpha=float(head["alpha"]), n=n)
    rows = lines[idx:]
    if len(rows) != n:
        raise ValueError("expected %d node lines, found %d" % (n, len(rows)))
    data = np.array([[float(tok) for tok in row.split()] for row in rows])
    if data.shape != (n, 2):
        raise ValueError("node lines must contain 'omega weight' pairs")
    quad = Quadrature(data[:, 0], data[:, 1])
    return params, quad
