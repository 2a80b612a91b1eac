"""Reference solution and output checks, computed apart from the package's solvers.

The minimal solution of ``X C X - X E - A X + B = 0`` with the transport
coefficients ``A = diag(delta) - e q^T``, ``B = e e^T``, ``C = q q^T`` and
``E = diag(d) - q e^T`` has the vector (Cauchy) form

    X = T o (u v^T),   T_ij = 1 / (delta_i + d_j),
    u = X q + e,       v = X^T q + e

(Lu, SIAM J. Matrix Anal. Appl. 2005).  Substituting X into the definitions
of u and v gives the sweeps ``u = 1/(1 - T(q o v))`` and
``v = 1/(1 - T^T(q o u))``, which rise monotonically from ``u = v = e`` to the
minimal solution.  Nothing here calls a solver of the package: the checks see
only the instance vectors ``delta``, ``d``, ``q`` and the returned ``X``.

The same substitution gives the residual of any ``X`` without forming the
coefficient matrices:  ``X C X - X E - A X + B = u' v'^T - (delta_i + d_j) X_ij``
with ``u' = X q + e`` and ``v' = X^T q + e``.
"""

from dataclasses import dataclass

import numpy as np

EPS = np.finfo(float).eps

#: entries per row block when a check walks an n x n quantity: memory stays
#: small at n = 4096, and a 2 MB block stays in cache (blocks of 1 << 20
#: entries made the residual at n = 4096 three times slower)
_BLOCK_ENTRIES = 1 << 18

#: sign and order checks allow this much, relative to the largest entry: the
#: factors of a low-rank X carry absolute errors of a few eps * ||X||, which
#: is the whole gap between a capped iterate and X at the smallest entries
#: (3.6e-15 at n = 4096, where those entries are 3.8e-8)
ROUNDING = 1e-12


@dataclass(frozen=True)
class Reference:
    """Vector-form minimal solution of one instance."""

    delta: np.ndarray
    d: np.ndarray
    u: np.ndarray
    v: np.ndarray
    sweeps: int
    mass: float     # e^T X e

    def rows(self, idx):
        """Rows ``idx`` of X, formed from u, v and the Cauchy kernel."""
        idx = np.asarray(idx)
        return (self.u[idx, None] * self.v[None, :]
                / (self.delta[idx, None] + self.d[None, :]))


def solve_reference(delta, d, q, max_sweeps=10000):
    """Gauss-Seidel sweeps on (u, v) until the update reaches roundoff.

    Stops once the largest relative update is at machine precision, or once it
    is below 1e-12 and no longer shrinking (the sweeps have hit their rounding
    floor).  Raises if ``max_sweeps`` pass first.
    """
    T = 1.0 / (delta[:, None] + d[None, :])
    u = np.ones_like(delta)
    v = np.ones_like(d)
    prev = np.inf
    for sweep in range(1, max_sweeps + 1):
        u_new = 1.0 / (1.0 - T @ (q * v))
        v_new = 1.0 / (1.0 - T.T @ (q * u_new))
        change = max(np.max(np.abs(u_new - u) / u_new),
                     np.max(np.abs(v_new - v) / v_new))
        u, v = u_new, v_new
        if change <= 2.0 * EPS or (change < 1e-12 and change >= prev):
            return Reference(delta=delta, d=d, u=u, v=v, sweeps=sweep,
                             mass=float(u @ T @ v))
        prev = change
    raise RuntimeError("reference sweeps did not settle in %d sweeps" % max_sweeps)


# ---------------------------------------------------------------------------
# views of a returned solution: a dense array or a left/core/right triple


def x_rows(X, idx):
    if isinstance(X, np.ndarray):
        return X[idx]
    return X.left[idx] @ (X.core[:, None] * X.right.T)


def x_times(X, q):
    """(X q, X^T q)."""
    if isinstance(X, np.ndarray):
        return X @ q, X.T @ q
    return (X.left @ (X.core * (X.right.T @ q)),
            X.right @ (X.core * (X.left.T @ q)))


def x_mass(X):
    """e^T X e."""
    if isinstance(X, np.ndarray):
        return float(X.sum())
    return float((X.left.sum(axis=0) * X.core) @ X.right.sum(axis=0))


def _row_blocks(n):
    step = max(1, _BLOCK_ENTRIES // n)
    for lo in range(0, n, step):
        yield np.arange(lo, min(n, lo + step))


def residual(delta, d, q, X):
    """||X C X - X E - A X + B||_F / ||B||_F, walked in row blocks."""
    n = delta.size
    xq, xtq = x_times(X, q)
    up, vp = xq + 1.0, xtq + 1.0
    total = 0.0
    for idx in _row_blocks(n):
        R = up[idx, None] * vp[None, :] - (delta[idx, None] + d[None, :]) * x_rows(X, idx)
        total += float(np.sum(R * R))
    return np.sqrt(total) / n


def extreme_entries(X):
    """(min, max) entry of X, walked in row blocks."""
    n = X.shape[0] if isinstance(X, np.ndarray) else X.left.shape[0]
    lo, hi = np.inf, -np.inf
    for idx in _row_blocks(n):
        rows = x_rows(X, idx)
        lo, hi = min(lo, float(rows.min())), max(hi, float(rows.max()))
    return lo, hi


def distance(ref, X):
    """||X - X_ref||_F / ||X_ref||_F over all rows."""
    num = den = 0.0
    for idx in _row_blocks(ref.u.size):
        Xr = ref.rows(idx)
        num += float(np.sum((x_rows(X, idx) - Xr) ** 2))
        den += float(np.sum(Xr * Xr))
    return np.sqrt(num / den)


# ---------------------------------------------------------------------------
# checks: each returns a list of (name, value, bound); a check passes when
# value <= bound and value is finite


def check_converged(ref, q, X, residual_bound, distance_bound):
    """A converged answer: nonnegative, small residual, close to the reference."""
    lo, hi = extreme_entries(X)
    return [
        ("neg_min_entry", -lo / hi, ROUNDING),
        ("residual", residual(ref.delta, ref.d, q, X), residual_bound),
        ("distance", distance(ref, X), distance_bound),
    ]


def check_iterate(ref, H, rows):
    """A capped doubling iterate H_k: 0 <= H_k <= X on the sampled rows.

    Doubling iterates rise monotonically to the minimal solution, so any entry
    above the reference or below zero is wrong however few doublings ran.
    Both are measured relative to the largest entry of X on those rows.
    """
    Hr = x_rows(H, rows)
    Xr = ref.rows(rows)
    scale = float(Xr.max())
    return [
        ("neg_min_entry", -float(Hr.min()) / scale, ROUNDING),
        ("max_above_reference", float(np.max(Hr - Xr)) / scale, ROUNDING),
    ]


def check_progress(ref, H, floor, bound):
    """A capped iterate H_k holds at least the share ``floor`` of X's mass.

    The order checks pass any iterate between 0 and X, however few doublings
    made it.  H_k after a fixed budget is fixed by the doubling itself, so its
    share e^T H_k e / e^T X e falling short of the stated ``floor``, relative,
    means work was left out.  A larger share passes.
    """
    return [("progress_shortfall", 1.0 - x_mass(H) / ref.mass / floor, bound)]


def check_agreement(H_a, H_b, rows, bound):
    """Relative Frobenius distance of two iterates on the sampled rows."""
    A = x_rows(H_a, rows)
    B = x_rows(H_b, rows)
    return [("agreement", float(np.linalg.norm(A - B) / np.linalg.norm(A)), bound)]


def check_reported(reported, own, bound):
    """The solver's reported residual against the residual computed here."""
    return [("reported_residual", abs(reported - own) / own, bound)]


def failed_checks(checks):
    return [(name, value, bound) for name, value, bound in checks
            if not (np.isfinite(value) and value <= bound)]
