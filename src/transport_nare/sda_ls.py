"""Large-scale doubling solver with truncated low-rank iterates.

The doubling iteration advances four coupled sequences.  Here the two inner
sequences H_k and G_k are stored as truncated SVD-style triples (orthonormal
factors around a diagonal core) and the outer sequences E_k, F_k as a diagonal
plus truncated low-rank factors (``ImplicitIterate``), so one iteration costs
O(n) times a polynomial in the truncated ranks.  Each step performs four large
implicit-operator block products; the balanced variant in ``modified_sda_ls``
gets away with two, which is the comparison the flop instrumentation exists
to make.  Level 0 comes from ``BaseOperators``' closed form: no shifted
solve runs in a solve.  ``extend_triple`` is the one kernel that adds a
low-rank term to a factor triple and re-truncates it, by one stack QR per
side and an SVD of the small core, as the outer iterates are updated; both
H/G updates here and the single H update of the balanced step call it.  The
configuration, the report and the ``run_doubling`` loop that all three
solvers share live here too.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .structured_linalg import (
    BaseOperators,
    Correction,
    FlopModel,
    ImplicitIterate,
    LowRankBilinear,
    RankOverflowError,
    gamma_select,
    orthonormalize_against,
    residual_norm,
    truncated_svd,
)

__all__ = [
    "SolverConfig",
    "SolveReport",
    "LowRankState",
    "run_doubling",
    "extend_triple",
    "sda_ls_step",
    "sda_ls_solve",
]


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by all solvers.

    tol_residual   normalized-residual stopping tolerance, positive and finite
    trunc_rel      singular-value drop threshold in [0, 1] (0 disables): H_k
                   and G_k drop values below trunc_rel times their largest,
                   E_k and F_k below trunc_rel * max(max|d_k|, largest),
                   relative to the whole operator; each step leaves out
                   the tail of an E/F update whose bound, with ||E_k||_2 <=
                   max|d_k| + max|s_k|, is at most trunc_rel * max|d_{k+1}|
                   (``ImplicitIterate.screen``)
    max_iter       doubling-iteration budget, an integer >= 1
    max_rank       cap on the H_k, G_k ranks (``LowRankState.check_rank_cap``),
                   an integer >= 1
    """

    tol_residual: float = 1e-12
    trunc_rel: float = 1e-15
    max_iter: int = 50
    max_rank: int = 200

    def __post_init__(self):
        if not 0 < self.tol_residual < np.inf:
            raise ValueError("tol_residual must be positive and finite")
        if not 0 <= self.trunc_rel <= 1:
            raise ValueError("trunc_rel must lie in [0, 1]")
        if not all(1 <= v < np.inf and v == int(v)
                   for v in (self.max_iter, self.max_rank)):
            raise ValueError("max_iter and max_rank must be integers >= 1")


@dataclass
class SolveReport:
    """What one solve did: histories, counters, timings, and how it ended."""

    algorithm: str
    n: int
    gamma: float = 0.0
    iterations: int = 0
    termination: str = "unstarted"
    residual_history: list = field(default_factory=list)
    residual_levels: list = field(default_factory=list)
    rank_history: list = field(default_factory=list)
    iter_times: list = field(default_factory=list)
    flops: FlopModel = field(default_factory=FlopModel)
    warnings: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def final_residual(self):
        return self.residual_history[-1] if self.residual_history else float("nan")

    @property
    def max_rank_seen(self):
        return max((max(r) for r in self.rank_history), default=0)

    def to_dict(self):
        return {
            "schema_version": 2,
            "algorithm": self.algorithm,
            "n": self.n,
            "gamma": self.gamma,
            "iterations": self.iterations,
            "termination": self.termination,
            "residual_history": [float(r) for r in self.residual_history],
            "residual_levels": list(self.residual_levels),
            "final_residual": float(self.final_residual),
            "rank_history": [list(r) for r in self.rank_history],
            "max_rank": self.max_rank_seen,
            "iter_times_s": [float(t) for t in self.iter_times],
            "wall_time_s": float(sum(self.iter_times)),
            "total_flops": float(self.flops.total()),
            "warnings": list(self.warnings),
            "extras": {k: v for k, v in self.extras.items()},
        }


#: The doubling loop computes no residual on a level whose relative H
#: increment ||H_k - H_{k-1}||_F / ||H_k||_F exceeds this, until one level's
#: increment falls to it; from then on it computes every level's residual.
GATE_INCREMENT = 0.25

#: At or above this tolerance the loop computes every level's residual.
GATE_OPEN_TOL = 1e-2


def stagnated(history, tol):
    """Residual floor detection on the computed residuals, level 0 first.

    Fires only after substantial decrease (three orders below the worst
    residual seen) when three further iterations failed to win another factor
    of two; early doubling iterations legitimately crawl, so a plain
    improvement test would cut healthy runs short.  ``run_doubling`` skips
    the residuals of early levels, and the verdict is still that of the full
    history: firing needs history[-4] below 2e-3 times the worst residual,
    which always sits at level 0, while every skipped residual measured
    stays above 0.0918 times it (a 46-fold margin; see ``run_doubling``).  A
    history whose history[-4] is level 0 cannot fire, since it is the worst.
    """
    if len(history) < 4:
        return False
    cur = history[-1]
    if cur <= tol:
        return False
    return cur > 0.5 * history[-4] and cur <= 1e-3 * max(history)


def run_doubling(report, inst, init, step, residual, config):
    """The doubling loop shared by all solvers; returns the final state.

    ``init()`` builds the level-0 state, ``step(st)`` advances it one doubling
    in place under the settings the state was built with (its return value
    is ignored) and ``residual(st)`` gives its normalized residual.  The state
    carries ``k``, ``gamma``, ``ranks``, ``increment`` (the relative H
    increment of its last doubling, 1 at level 0) and ``levels()``, a dict of
    per-level values that accumulate as lists in ``report.extras``.  Every
    history but the residual one holds the level-0 entry in front of one entry
    per doubling; the increments go to ``extras["increments"]``.

    A residual costs a sizable share of a doubling, and doubling converges
    quadratically, so a residual is computed only where it can end the run:
    at level 0, on every level from the first whose increment is at most
    ``GATE_INCREMENT``, and at ``max_iter``; every level when ``tol_residual``
    is at least ``GATE_OPEN_TOL``.  ``residual_history`` holds the computed
    residuals and ``residual_levels`` their levels.  Each level's entry of
    ``iter_times`` covers its doubling (``init`` at level 0) and the residual
    computed on it, if any, so ``wall_time_s`` is the whole solve.  A residual
    at tolerance ends the run 'converged'; otherwise the run ends 'stagnated'
    at its roundoff floor or 'max_iter'.

    The skipped residuals are those an ungated loop would have read without
    stopping, so both loops take the same doublings and return the same X.
    Measured on 418 ungated runs (all three solvers at n = 1 to 128 on twelve
    (c, alpha) cells including the critical pair, the low-rank ones on up to
    eight cells at n = 256 to 4096, dense-sda on four at 256 and 512;
    trunc_rel 1e-15, and 0 at n = 8, 16, 64): every residual the gate skips
    is at least 0.0918 (n = 2, c = 0.5, alpha = 0; 0.093 to 0.114 from n = 3
    on), 9x above ``GATE_OPEN_TOL``, and the worst residual of every run is
    its level-0 one; ``stagnated`` needs history[-4] at most 2e-3 times it,
    46x below.  Both low-rank solvers at trunc_rel 1e-8 on the n = 64
    cells, whose residuals floor near 1e-6, take the same runs too.
    """
    if inst.near_singular:
        report.warnings.append("near-critical parameters (c=1, alpha=0)")
        warnings.warn("near-critical instance: convergence may degrade",
                      RuntimeWarning, stacklevel=3)
    gate_open = config.tol_residual >= GATE_OPEN_TOL

    def record(st, seconds):
        report.iter_times.append(seconds)
        report.rank_history.append(st.ranks)
        report.extras.setdefault("increments", []).append(st.increment)
        for key, value in st.levels().items():
            report.extras.setdefault(key, []).append(value)

    def evaluate(st):
        res = residual(st)
        report.residual_history.append(res)
        report.residual_levels.append(st.k)
        return res

    t0 = time.perf_counter()
    st = init()
    report.gamma = st.gamma
    evaluate(st)
    record(st, time.perf_counter() - t0)
    report.termination = "max_iter"
    while st.k < config.max_iter:
        t0 = time.perf_counter()
        step(st)
        gate_open = gate_open or st.increment <= GATE_INCREMENT
        res = evaluate(st) if gate_open or st.k == config.max_iter else None
        record(st, time.perf_counter() - t0)
        if res is None:
            continue
        if res <= config.tol_residual:
            report.termination = "converged"
            break
        elif stagnated(report.residual_history, config.tol_residual):
            report.termination = "stagnated"
            break
    report.iterations = st.k
    return st


class LowRankState:
    """Mutable per-solve state of the low-rank iterations.

    Owns the ``SolverConfig`` that every step runs under, the solve's
    ``FlopModel``, into which every kernel of every step counts, the doubling
    shift ``gamma``, the outer iterates E_k, F_k (``Eimp``, ``Fimp``) and the
    H_k and G_k factor triples ``H`` and ``G`` (``LowRankBilinear``), all
    four built at level 0 from ``BaseOperators``, which is not kept.  The
    balanced iteration, where G_k = H_k^T, sets ``G`` to None.  ``increment`` is
    ||H_k - H_{k-1}||_F / ||H_k||_F of the last H update (1 at level 0).
    ``check_rank_cap`` is the one check of ``max_rank``.
    """

    def __init__(self, inst, config, flops):
        self.inst = inst
        self.config = config
        self.flops = flops
        self.flops.k = 0
        self.gamma = gamma_select(inst)
        base = BaseOperators(inst, self.gamma)
        trunc_rel = self.config.trunc_rel
        self.Eimp = ImplicitIterate(base.E, flops=self.flops, trunc_rel=trunc_rel)
        self.Fimp = ImplicitIterate(base.F, flops=self.flops, trunc_rel=trunc_rel)
        self.H, self.G = LowRankBilinear(*base.H), LowRankBilinear(*base.G)
        self.k = 0
        self.increment = 1.0

    @property
    def ranks(self):
        return tuple(X.rank for X in (self.H, self.G) if X is not None)

    def levels(self):
        return {"operator_rank_history": (self.Eimp.rank, self.Fimp.rank)}

    def check_rank_cap(self):
        """Raise RankOverflowError unless step k + 1 keeps each triple within
        ``max_rank``: a rank-m triple's correction is E_k or F_k times its own
        factor, m wide, so its basis grows to at most min(n, 2m) columns.
        Both steps call it before they change anything."""
        for m in self.ranks:
            grown = min(self.inst.n, 2 * m)
            if grown > self.config.max_rank:
                raise RankOverflowError(
                    "step %d would grow rank %d to %d past max_rank=%d"
                    % (self.k + 1, m, grown, self.config.max_rank))


def extend_triple(X, Z, trunc_rel, flops):
    """Truncated orthonormal triple of X + Z1 C Z2^T, X = Q1 diag(core) Q2^T.

    Z is the ``Correction`` (Z1, C, Z2).  Factors the stacks [Q1, Z1] = Qf1
    R1 and [Q2, Z2] = Qf2 R2 where they are written
    (``orthonormalize_against``), so the sum is Qf1 M Qf2^T with the small
    core M = R1[:, m:] C R2[:, m:]^T + R1[:, :m] diag(core) R2[:, :m]^T,
    SVD-truncates M at ``trunc_rel`` and applies the new factors Qf1 U1 and
    Qf2 U2 through the block reflectors: no n-wide basis is formed, and the
    truncated SVD alone sets the rank.  Like ``ImplicitIterate``'s push it
    checks no policy: the rank cap is the state's.  X and Z are consumed: Q1
    and Z1 are released (set to None) once the first stack holds copies,
    before the second is allocated, Q2 and Z2 once the second does, and R1,
    R2, M and the left factorization as soon as they are read (peak memory),
    so the old and new triples are never live together, and a Z1 that its
    caller holds no other reference to is gone before the second stack is
    allocated; neither X nor Z is to be read again, even if a later error
    raises.  Every doubling step goes through here; the inits do not, their
    rank-one triples come from ``BaseOperators`` whole.  Returns the new
    triple and its relative increment ||Z1 C Z2^T||_F / ||s||_2, the norm of
    the added term (the first term of M) over that of the result: an O(w^3)
    by-product on which ``run_doubling`` gates its residuals.  Lives in this
    module, not ``structured_linalg``, so that its kernel calls resolve
    through this module's names, which perfbench's span tracer patches.
    """
    m, n, core, C = X.rank, X.n, X.core, Z.core
    F1 = orthonormalize_against(X.left, Z.left, flops=flops)
    X.left = Z.left = None
    F2 = orthonormalize_against(X.right, Z.right, flops=flops)
    X.right = Z.right = None
    R1, R2 = F1.r(), F2.r()
    M = R1[:, m:] @ C @ R2[:, m:].T
    added = np.linalg.norm(M)
    M += (R1[:, :m] * core[None, :]) @ R2[:, :m].T
    del R1, R2
    U1, s, U2 = truncated_svd(M, trunc_rel, flops=flops)
    k = M.shape[0]
    del M
    flops.add("factor_assembly", 2.0 * k ** 3 + 4.0 * n * k * s.size)
    size = np.linalg.norm(s)
    increment = float(added / size) if size else 0.0
    left = F1.q_times(U1)
    del F1, U1
    return LowRankBilinear(left, s, F2.q_times(U2)), increment


def step_cores(st):
    """The small cores of one doubling step.

    With H = Q1 diag(Sig) Q2^T, G = P1 diag(Gam) P2^T and the cross-Gram
    blocks N1 = Q2^T P1 and N2 = P2^T Q1, returns the two corrected cores
        SigC = (I - Sig N1 Gam N2)^-1 Sig,
        GamC = (I - Gam N2 Sig N1)^-1 Gam,
    and the cores WE = GamC N2 Sig (l x m) and WF = SigC N1 Gam (m x l) of
    the next level's rank corrections (E P1) WE (E^T Q2)^T and (F Q1) WF
    (F^T P2)^T, which are pushed in that factored form: no n-wide product
    is formed here.
    """
    flops = st.flops
    n = st.inst.n
    H, G = st.H, st.G
    Sig, Gam = H.core, G.core
    m, l = Sig.size, Gam.size
    N1 = H.right.T @ G.left
    N2 = G.right.T @ H.left
    flops.add("cross_gram", 4.0 * n * m * l)
    SN1 = Sig[:, None] * N1            # m x l
    GN2 = Gam[:, None] * N2            # l x m
    Achk = np.eye(m) - SN1 @ GN2
    Bchk = np.eye(l) - GN2 @ SN1
    SigC = np.linalg.solve(Achk, np.diag(Sig))
    GamC = np.linalg.solve(Bchk, np.diag(Gam))
    WE = GamC @ (N2 * Sig[None, :])    # = (I - Gam N2 Sig N1)^-1 Gam N2 Sig
    WF = SigC @ (N1 * Gam[None, :])    # = (I - Sig N1 Gam N2)^-1 Sig N1 Gam
    flops.add("inner_core", 4.0 * m * l * (m + l) + 2.0 * (m ** 3 + l ** 3))
    return SigC, GamC, WE, WF


def sda_ls_step(st):
    """One doubling step on the truncated factors.

    Checks the rank cap first (``st.check_rank_cap``), so an overflow raises
    before the state changes.  Then it takes the cores of ``step_cores`` and
    hands each update its ``Correction`` (left, core, right), in this order:

        E   (E P1, WE, E^T Q2)     ``push_update``
        H   (F Q1, SigC, E^T Q2)   ``extend_triple``, consumes the old H
        G   (E P1, GamC, F^T P2)   ``extend_triple``, consumes the old G
        F   (F Q1, WF, F^T P2)     ``push_update``

    The readers form a cycle, each product read by two neighbours, so each
    update holds its own two products and at most one more.  Every update
    reads level-k quantities only: each product is built from the old E, F,
    H or G before that operand changes, E's products before E's push and
    F's before F's.  Each product is built just before its first reader and
    released by its last: E^T Q2 inside H's extend, E P1 inside G's, F Q1
    and F^T P2 inside F's push, each once the reader's stack holds a copy.
    So E's push holds E P1 and E^T Q2 only, the extends three products each
    and F's push its two.  Each push takes its update screened: the
    products are E_k (F_k) or its transpose times orthonormal columns, so
    the trailing rows and columns of WE (WF) whose absolute sum times
    (max|d_k| + max|s_k|)^2 is at most half of trunc_rel * max|d_{k+1}|
    each are left out (``ImplicitIterate.screen``) and the push sees prefix
    views; the extends take the products whole.
    """
    st.check_rank_cap()
    flops = st.flops
    flops.k = st.k + 1
    E, F, H, G = st.Eimp, st.Fimp, st.H, st.G
    trunc_rel = st.config.trunc_rel
    SigC, GamC, WE, WF = step_cores(st)
    ZE1 = E.apply(G.left)
    ZE2 = E.apply(H.right, transpose=True)
    a, b = E.screen(WE)
    E.push_update(Correction(ZE1[:, :a], WE[:a, :b], ZE2[:, :b]))
    ZF1 = F.apply(H.left)
    update = Correction(ZF1, SigC, ZE2)
    del ZE2     # H's extend reads it last and frees it
    st.H, st.increment = extend_triple(H, update, trunc_rel, flops)
    ZF2 = F.apply(G.right, transpose=True)
    update = Correction(ZE1, GamC, ZF2)
    del ZE1     # G's extend reads it last and frees it
    st.G, _ = extend_triple(G, update, trunc_rel, flops)
    a, b = F.screen(WF)
    update = Correction(ZF1[:, :a], WF[:a, :b], ZF2[:, :b])
    del ZF1, ZF2    # F's push reads them last and frees them
    F.push_update(update)
    st.k += 1


def sda_ls_solve(inst, config=None):
    """Iterate to the minimal solution; returns (X, SolveReport).

    X is the final H-side triple.  Termination is 'converged' on hitting the
    normalized-residual tolerance, 'stagnated' once the residual flattens at
    its roundoff floor, or 'max_iter'.
    """
    config = config or SolverConfig()
    report = SolveReport(algorithm="sda-ls", n=inst.n)
    st = run_doubling(
        report, inst,
        lambda: LowRankState(inst, config, report.flops),
        sda_ls_step,
        lambda st: residual_norm(inst, st.H, flops=report.flops)[1],
        config)
    return st.H, report
