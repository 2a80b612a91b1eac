"""Transport-theory Riccati instances.

A particle-transport discretization with n angular nodes omega_i and weights
c_i yields the nonsymmetric algebraic Riccati equation

    X C X - X E - A X + B = 0,
    A = diag(delta) - u v^T,  B = u u^T,  C = v v^T,  E = diag(d) - v u^T,

with delta_i = 1/(c omega_i (1+alpha)), d_i = 1/(c omega_i (1-alpha)) and,
in the original form, u = e (all ones) and v = q with q_i = c_i / (2 omega_i).
Physical parameters: average number of secondaries 0 < c <= 1 and angular
shift 0 <= alpha < 1; c = 1 with alpha = 0 is the critical pair where the
underlying block matrix turns singular.

This module builds instances from parameters and quadratures, applies the
balancing similarity that makes u = v = sqrt(u v) (so B = C and A, E turn
symmetric), and assembles small dense realizations for the oracle solvers.
Both forms are the one ``NareInstance`` type.  Instances are immutable value
objects; all operations are pure.

The Gauss-Legendre rule is computed in O(n) in the angle theta, x = cos(theta):
Newton steps on P_n(cos theta), evaluated by the Stieltjes expansion in the
interior and by the exact cosine sum at the END_NODES roots nearest each end
(Hale and Townsend, SIAM J. Sci. Comput. 35 (2013); Bogaert, SIAM J. Sci.
Comput. 36 (2014)), so the weights and the smallest nodes keep their relative
accuracy at every n.
"""

import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .structured_linalg import LowRankBilinear

__all__ = [
    "DENSE_CAP",
    "TransportParams",
    "Quadrature",
    "NareInstance",
    "gauss_legendre",
    "build_instance",
    "make_instance",
    "balance",
    "unbalance_scale",
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
    """Physical parameters (c, alpha) and the problem dimension n, stored as
    an int once its value is checked to be a positive integer."""

    c: float
    alpha: float
    n: int

    def __post_init__(self):
        if not (0.0 < self.c <= 1.0):
            raise ValueError("c must lie in (0, 1], got %r" % (self.c,))
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError("alpha must lie in [0, 1), got %r" % (self.alpha,))
        if not (1 <= self.n < np.inf and int(self.n) == self.n):
            raise ValueError("n must be a positive integer, got %r" % (self.n,))
        object.__setattr__(self, "n", int(self.n))

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


#: The END_NODES smallest angles of the half rule take the exact cosine sum of
#: P_n; the others take the Stieltjes expansion, which needs n sin(theta) large.
END_NODES = 10

#: Terms of the Stieltjes expansion.  The first omitted one is below 1e-19 of
#: the first at the smallest angle that uses the expansion, at every n.
STIELTJES_TERMS = 20

#: a_j = C(2j, j)/4^j comes from exact integers below this j, and above it from
#: its asymptotic series, whose first omitted term is below 5e-18 relative.
_SERIES_FROM = 64


def _central_binomials(n):
    """a_j = C(2j, j)/4^j = Gamma(j+1/2)/(sqrt(pi) j!), j = 0..n, to an ulp or two.

    A running product of the ratios (2j-1)/(2j) would gather about sqrt(j)
    roundings (1e-14 relative at j = 32768), so each a_j is taken on its own:
    for j >= _SERIES_FROM from log(Gamma(y+1/4)/Gamma(y+3/4)) = -log(y)/2
    - 1/(64 y^2) + 5/(2048 y^4) - 61/(49152 y^6) + ... with y = j + 1/4.
    """
    head = [math.comb(2 * j, j) / 4 ** j for j in range(min(n + 1, _SERIES_FROM))]
    y = np.arange(_SERIES_FROM, n + 1) + 0.25
    z = 1.0 / (y * y)
    series = z * (-1.0 / 64 + z * (5.0 / 2048 - z * (61.0 / 49152)))
    tail = np.exp(series) / np.sqrt(np.pi * y)
    return np.concatenate((head, tail))


def _cosine_sum(n, a, t):
    """P_n(cos t) and its t-derivative from sum_j a_j a_{n-j} cos((n-2j) t), exact."""
    j = np.arange(n // 2 + 1)
    m = n - 2 * j
    coef = a[j] * a[n - j] * np.where(m > 0, 2.0, 1.0)   # the terms j and n-j pair up
    arg = np.multiply.outer(t, m)
    return np.cos(arg) @ coef, -(np.sin(arg) @ (coef * m))


def _stieltjes(n, a, t):
    """P_n(cos t) and its t-derivative from the Stieltjes expansion.

    P_n(cos t) = C_n sum_m h_m cos(alpha_m) / (2 sin t)^(m+1/2) with
    alpha_m = (n+m+1/2) t - (m+1/2) pi/2, h_0 = 1,
    h_m = h_{m-1} (m-1/2)^2 / (m (n+m+1/2)) and
    C_n = (2/sqrt(pi)) Gamma(n+1)/Gamma(n+3/2) = 2/(pi (n+1/2) a_n).
    Each alpha_m is alpha_{m-1} + t - pi/2, so its sine and cosine follow by
    one rotation.
    """
    s, c = np.sin(t), np.cos(t)
    alpha = (n + 0.5) * t - np.pi / 4
    ca, sa = np.cos(alpha), np.sin(alpha)
    term = 2.0 / (np.pi * (n + 0.5) * a[n]) / np.sqrt(2.0 * s)
    p = np.zeros_like(t)
    dp = np.zeros_like(t)
    for m in range(STIELTJES_TERMS):
        p += term * ca
        dp -= term * ((n + m + 0.5) * sa + (m + 0.5) * (c / s) * ca)
        term *= (m + 0.5) ** 2 / ((m + 1) * (n + m + 1.5) * 2.0 * s)
        ca, sa = ca * s + sa * c, sa * s - ca * c
    return p, dp


def _legendre_angle(n, a, t):
    """P_n(cos t) and dP_n(cos t)/dt at ascending angles t in (0, pi/2]."""
    p, dp = np.empty_like(t), np.empty_like(t)
    p[:END_NODES], dp[:END_NODES] = _cosine_sum(n, a, t[:END_NODES])
    p[END_NODES:], dp[END_NODES:] = _stieltjes(n, a, t[END_NODES:])
    return p, dp


def gauss_legendre(n):
    """Gauss-Legendre quadrature on (0, 1), nodes sorted descending, in O(n).

    The roots of P_n are found in the angle theta, x = cos(theta), on the half
    rule 0 < theta <= pi/2: Tricomi's guess (1 - 1/(8n^2) + 1/(8n^3))
    cos(pi (4k-1)/(4n+2)), then vectorized Newton steps until no angle moves
    by more than 1e-10 of itself.  The relative error squares each step, so
    this takes three steps at every n tried (3 to 3000, and 4095 to 100000;
    two at n = 2).  P_n(cos theta) and its theta derivative come from the
    exact cosine sum at the END_NODES smallest angles, where it costs O(n)
    each, and from the Stieltjes expansion at the others.  The weight on (0, 1) is
    1/(dP_n/dtheta)^2, the small node sin^2(theta/2) and its mirror one minus
    that, so the weights mirror exactly; for odd n the middle node is exactly
    1/2.  Against 40-digit references at n = 64 to 65536 the nodes agree to
    1.1e-16 absolute and the weights and the smallest nodes to about 1e-15
    relative.
    """
    if int(n) != n or n < 1:
        raise ValueError("n must be a positive integer")
    n = int(n)
    if n == 1:
        return Quadrature(np.array([0.5]), np.array([1.0]))
    a = _central_binomials(n)
    k = np.arange(1, n // 2 + 1)
    t = np.arccos((1.0 - 1.0 / (8.0 * n * n) + 1.0 / (8.0 * n ** 3))
                  * np.cos(np.pi * (4 * k - 1) / (4 * n + 2)))
    for _ in range(10):
        p, dp = _legendre_angle(n, a, t)
        step = p / dp
        t -= step
        if np.abs(step / t).max() <= 1e-10:
            break
    else:
        raise RuntimeError("Gauss-Legendre nodes for n=%d did not converge" % n)
    lo = np.sin(t / 2.0) ** 2           # ascending, below 1/2
    if n % 2:                           # the root x = 0 of odd P_n stays put
        t, lo = np.append(t, np.pi / 2), np.append(lo, 0.5)
    _, dp = _legendre_angle(n, a, t)
    w = 1.0 / (dp * dp)
    om = np.concatenate((1.0 - lo, lo[::-1][n % 2:]))
    wt = np.concatenate((w, w[::-1][n % 2:]))
    return Quadrature(om, wt)


@dataclass(frozen=True, eq=False)
class NareInstance:
    """Implicit coefficient matrices of one transport Riccati equation.

    A = diag(delta) - u v^T, B = u u^T, C = v v^T and E = diag(d) - v u^T.
    Stores only the four vectors; A, B, C, E are never formed at scale.  The
    original form has u = e and v = q, the balanced form u = v = phi.
    ``params`` and ``quad`` are kept for reporting and round-trips.
    """

    delta: np.ndarray
    d: np.ndarray
    u: np.ndarray
    v: np.ndarray
    params: TransportParams
    quad: Quadrature

    @property
    def n(self):
        return self.delta.size

    @property
    def q(self):
        """The products u_i v_i: q itself in the original form, phi^2 balanced."""
        return self.u * self.v

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
    return NareInstance(delta=delta, d=d, u=np.ones(params.n), v=q,
                        params=params, quad=quad)


def make_instance(n, c, alpha):
    """Convenience constructor: parameters plus Gauss-Legendre nodes (other
    quadratures go through ``build_instance``)."""
    params = TransportParams(c=c, alpha=alpha, n=n)
    return build_instance(params, gauss_legendre(params.n))


def balance(inst):
    """Similarity-transform an instance so all rank-one parts coincide.

    Returns the instance with u = v = phi = sqrt(u v), in one array, which is
    the original equation conjugated by diag(sqrt(u/v)).  Balanced means
    ``inst.u is inst.v`` everywhere; such an instance comes back unchanged.
    """
    if inst.u is inst.v:
        return inst
    phi = _root_q(inst)
    return NareInstance(delta=inst.delta, d=inst.d, u=phi, v=phi,
                        params=inst.params, quad=inst.quad)


def _root_q(inst):
    """phi = sqrt(u v), once u v is checked strictly positive."""
    q = inst.q
    if np.any(q <= 0.0):
        raise ValueError("balancing requires strictly positive u v")
    return np.sqrt(q, out=q)


def unbalance_scale(inst):
    """The row scale u / phi = sqrt(u / v) from ``balance(inst)`` back to ``inst``.

    1/phi on the original form and exactly 1 on a balanced one; one
    n-vector, and no balanced instance is built for it.
    """
    if inst.u is inst.v:
        return np.ones(inst.n)
    phi = _root_q(inst)
    return np.divide(inst.u, phi, out=phi)


def unbalance_solution(Xb, inst):
    """Map a solution of ``balance(inst)`` back to the variables of ``inst``.

    Rows of both factors are scaled by ``unbalance_scale(inst)`` and the
    core is untouched, which realizes diag(u/phi) @ Xb @ diag(u/phi).  The
    scaling deliberately gives up column orthonormality of the returned
    factors.
    """
    if Xb.left.shape[0] != inst.n:
        raise ValueError("factor rows (%d) and instance size (%d) disagree"
                         % (Xb.left.shape[0], inst.n))
    scale = unbalance_scale(inst)[:, None]
    return LowRankBilinear(Xb.left * scale, Xb.core.copy(), Xb.right * scale)


def assemble_dense(inst):
    """Dense (A, B, C, E) realization of an instance, for n up to ``DENSE_CAP``.

    The one check of the dense size limit: every dense path assembles here.
    """
    n = inst.n
    if n > DENSE_CAP:
        raise ValueError("dense assembly capped at n=%d (got n=%d); use the "
                         "low-rank solvers" % (DENSE_CAP, n))
    u, v = inst.u, inst.v
    A = np.diag(inst.delta) - np.outer(u, v)
    E = np.diag(inst.d) - np.outer(v, u)
    return A, np.outer(u, u), np.outer(v, v), E


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
