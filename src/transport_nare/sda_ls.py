"""Large-scale doubling solver with truncated low-rank iterates.

The doubling iteration advances four coupled sequences.  Here the two inner
sequences H_k and G_k are stored as truncated SVD-style triples (orthonormal
factors around a diagonal core) and the outer sequences E_k, F_k as a diagonal
plus truncated low-rank factors (``ImplicitIterate``), so one iteration costs
O(n) times a polynomial in the truncated ranks.  Each step performs four large
implicit-operator block products; the balanced variant in ``modified_sda_ls``
gets away with two, which is the comparison the flop instrumentation exists
to make.  ``extend_triple`` is the one kernel that adds a low-rank term to a
factor triple and re-truncates it; both inits, both H/G updates here and the
single H update of the balanced step call it.  The configuration, the report
and the ``run_doubling`` loop that all three solvers share live here too.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .structured_linalg import (
    BaseOperators,
    FlopModel,
    ImplicitIterate,
    LowRankBilinear,
    RankOverflowError,
    ShiftedSolver,
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
    "sda_ls_init",
    "sda_ls_step",
    "sda_ls_solve",
]


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by all solvers.

    tol_residual   normalized-residual stopping tolerance
    trunc_rel      relative singular-value drop threshold (0 disables)
    max_iter       doubling-iteration budget
    max_rank       cap on truncated factor ranks
    """

    tol_residual: float = 1e-12
    trunc_rel: float = 1e-15
    max_iter: int = 50
    max_rank: int = 200

    def __post_init__(self):
        if self.tol_residual <= 0:
            raise ValueError("tol_residual must be positive")
        if self.trunc_rel < 0:
            raise ValueError("trunc_rel must be nonnegative")
        if self.max_iter < 1 or self.max_rank < 1:
            raise ValueError("max_iter and max_rank must be >= 1")


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

    Fires only after substantial decrease (six orders below the worst residual
    seen) when three further iterations failed to win another factor of two;
    early doubling iterations legitimately crawl, so a plain improvement test
    would cut healthy runs short.  ``run_doubling`` skips the residuals of
    early levels, and the verdict is still that of the full history: firing
    needs history[-4] below 2e-6 times the worst residual, which always sits
    at level 0, while every skipped residual measured stays above 0.093 times
    it (a 4.6e4-fold margin; see ``run_doubling``).  A history whose
    history[-4] is level 0 cannot fire, since it is the worst residual.
    """
    if len(history) < 4:
        return False
    cur = history[-1]
    if cur <= tol:
        return False
    return cur > 0.5 * history[-4] and cur <= 1e-6 * max(history)


def run_doubling(report, inst, init, step, residual, config):
    """The doubling loop shared by all solvers; returns the final state.

    ``init()`` builds the level-0 state, ``step(st, config)`` advances it one
    doubling and ``residual(st)`` gives its normalized residual.  The state
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
    its level-0 one, which ``stagnated`` relies on.  Both low-rank solvers
    at trunc_rel 1e-8 on the n = 64 cells, whose residuals floor near 1e-6,
    take the same runs too.
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
        step(st, config)
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

    Holds the H-side factor triple (Q1, Sig, Q2), the G-side triple (P1, Gam,
    P2), the outer iterates E_k, F_k and the flop counters.  The balanced
    iteration, where G_k = H_k^T, leaves the G side unset.  ``increment`` is
    ||H_k - H_{k-1}||_F / ||H_k||_F of the last H update (1 at level 0).
    """

    def __init__(self, inst, solver, Eimp, Fimp, flops):
        self.inst = inst
        self.solver = solver
        self.Eimp = Eimp
        self.Fimp = Fimp
        self.flops = flops
        self.k = 0
        self.increment = 1.0
        self.Q1 = self.Q2 = self.P1 = self.P2 = None
        self.Sig = self.Gam = None

    @property
    def gamma(self):
        return self.solver.gamma

    @property
    def H(self):
        return LowRankBilinear(self.Q1, self.Sig, self.Q2)

    @property
    def G(self):
        return LowRankBilinear(self.P1, self.Gam, self.P2)

    @property
    def ranks(self):
        if self.Gam is None:
            return (self.Sig.size,)
        return (self.Sig.size, self.Gam.size)

    def levels(self):
        return {"operator_rank_history": (self.Eimp.rank, self.Fimp.rank)}


def low_rank_state(inst, config, flops):
    """Level-0 state without factors: the shifted solver and both outer iterates."""
    flops = flops if flops is not None else FlopModel()
    flops.k = 0
    solver = ShiftedSolver(inst, gamma_select(inst))
    base = BaseOperators(solver)
    Eimp = ImplicitIterate(base, "E", flops=flops, trunc_rel=config.trunc_rel)
    Fimp = ImplicitIterate(base, "F", flops=flops, trunc_rel=config.trunc_rel)
    return LowRankState(inst, solver, Eimp, Fimp, flops)


def extend_triple(Q1, core, Q2, Z1, C, Z2, config, flops):
    """Truncated orthonormal triple of Q1 diag(core) Q2^T + Z1 C Z2^T.

    Extends both orthonormal bases by the fresh directions of Z1 and Z2
    (Zi = Qi Si + Qhi Ri), so the sum is [Q1, Qh1] M [Q2, Qh2]^T with the
    small middle matrix M = [S1; R1] C [S2; R2]^T plus diag(core) in its
    leading block, and SVD-truncates M at ``config.trunc_rel``.  Every
    doubling step and both inits (from an empty triple) go through here.  The
    rank cap is checked before any QR allocates.  Returns the new triple and
    its relative increment ||M - diag(core)+0||_F / ||s||_2, the norm of the
    added term over that of the result (1 from an empty triple): an O(w^2)
    by-product on which ``run_doubling`` gates its residuals.  Lives in this
    module, not ``structured_linalg``, so that its kernel calls resolve
    through this module's names, which perfbench's span tracer patches.
    """
    m, n = core.size, Z1.shape[0]
    if m + Z1.shape[1] > config.max_rank:
        raise RankOverflowError(
            "step %d would grow rank %d to %d past max_rank=%d"
            % (flops.k, m, m + Z1.shape[1], config.max_rank))
    Qh1, S1, R1 = orthonormalize_against(Q1, Z1, flops=flops)
    Qh2, S2, R2 = orthonormalize_against(Q2, Z2, flops=flops)
    M = np.vstack([S1, R1]) @ C @ np.vstack([S2, R2]).T
    added = np.linalg.norm(M)
    M[:m, :m] += np.diag(core)
    U1, s, U2 = truncated_svd(M, config.trunc_rel, flops=flops)
    w = M.shape[0]
    flops.add("factor_assembly", 2.0 * w ** 3 + 4.0 * n * w * s.size)
    size = np.linalg.norm(s)
    increment = float(added / size) if size else 0.0
    return np.hstack([Q1, Qh1]) @ U1, s, np.hstack([Q2, Qh2]) @ U2, increment


def sda_ls_init(inst, config=None, flops=None):
    """Initial truncated factors and implicit operators.

    Takes the rank-one factorizations B = u u^T and C = v v^T and splits
    2*gamma as sqrt(2*gamma) on each side, which on a balanced instance makes
    the four initial factor blocks pairwise identical; the symmetry audit
    starts from exactly that.
    """
    config = config or SolverConfig()
    st = low_rank_state(inst, config, flops)
    solver, flops = st.solver, st.flops
    b, c = inst.u[:, None], inst.v[:, None]
    sq = np.sqrt(2.0 * st.gamma)
    none, one = np.zeros((inst.n, 0)), np.eye(1)
    st.Q1, st.Sig, st.Q2, st.increment = extend_triple(
        none, np.zeros(0), none, sq * solver.solve("W", b, flops=flops), one,
        sq * solver.solve("E", b, transpose=True, flops=flops), config, flops)
    st.P1, st.Gam, st.P2, _ = extend_triple(
        none, np.zeros(0), none, sq * solver.solve("E", c, flops=flops), one,
        sq * solver.solve("W", c, transpose=True, flops=flops), config, flops)
    return st


def step_core(Sig, Gam, N1, N2):
    """Small inner matrices of one doubling step.

    N1 = Q2^T P1 and N2 = P2^T Q1 are the cross-Gram blocks.  Returns the two
    corrected cores
        SigC = (I - Sig N1 Gam N2)^-1 Sig,
        GamC = (I - Gam N2 Sig N1)^-1 Gam,
    and the mixing weights WE, WF that turn the large implicit products into
    the next level's low-rank corrections.  Shared with the symmetry audit,
    which checks identities on exactly these quantities.
    """
    m, l = Sig.size, Gam.size
    SN1 = Sig[:, None] * N1            # m x l
    GN2 = Gam[:, None] * N2            # l x m
    Achk = np.eye(m) - SN1 @ GN2
    Bchk = np.eye(l) - GN2 @ SN1
    SigC = np.linalg.solve(Achk, np.diag(Sig))
    GamC = np.linalg.solve(Bchk, np.diag(Gam))
    WE = np.linalg.solve(Bchk, Gam[:, None] * (N2 * Sig[None, :]))   # l x m
    WF = np.linalg.solve(Achk, Sig[:, None] * (N1 * Gam[None, :]))   # m x l
    return SigC, GamC, WE, WF


def sda_ls_step(st, config=None):
    """One doubling step on the truncated factors.

    Computes the inner corrected cores and the four large implicit products
    E P1, E^T Q2, F Q1, F^T P2, extends and re-truncates the H and G triples
    with ``extend_triple``, and pushes the new rank corrections onto the
    implicit operators.  A rank overflow raises before the state changes.
    """
    config = config or SolverConfig()
    flops = st.flops
    flops.k = st.k + 1
    n = st.inst.n
    m, l = st.Sig.size, st.Gam.size
    N1 = st.Q2.T @ st.P1
    N2 = st.P2.T @ st.Q1
    flops.add("cross_gram", 4.0 * n * m * l)
    SigC, GamC, WE, WF = step_core(st.Sig, st.Gam, N1, N2)
    flops.add("inner_core", 4.0 * m * l * (m + l) + 2.0 * (m ** 3 + l ** 3))
    ZE1 = st.Eimp.apply(st.P1)
    ZE2 = st.Eimp.apply(st.Q2, transpose=True)
    ZF1 = st.Fimp.apply(st.Q1)
    ZF2 = st.Fimp.apply(st.P2, transpose=True)
    E1 = ZE1 @ WE
    F1 = ZF1 @ WF
    flops.add("rank_update", 2.0 * n * l * m + 2.0 * n * m * l)
    # both triples are built before either is stored: an overflow leaves st as it was
    H = extend_triple(st.Q1, st.Sig, st.Q2, ZF1, SigC, ZE2, config, flops)
    G = extend_triple(st.P1, st.Gam, st.P2, ZE1, GamC, ZF2, config, flops)
    (st.Q1, st.Sig, st.Q2, st.increment), (st.P1, st.Gam, st.P2, _) = H, G
    st.Eimp.push_update(E1, ZE2)
    st.Fimp.push_update(F1, ZF2)
    st.k += 1
    return st


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
        lambda: sda_ls_init(inst, config=config, flops=report.flops),
        sda_ls_step,
        lambda st: residual_norm(inst, st.H, flops=report.flops)[1],
        config)
    return st.H, report
