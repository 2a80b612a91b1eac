"""Doubling-trajectory guard: a kernel swap that shifts the trajectory fails here.

Both large-scale solvers on the three cells of each benchmark workload: the
converged one (n = 512, tol 1e-9) and the capped one (n = 4096, 8 doublings).
Doubling counts and terminations are asserted exactly; the largest factor rank
seen (H and G for sda-ls, H for modified-sda-ls) within one, and so the largest
E/F correction rank (``operator_rank_history``), since roundoff-level changes
to a kernel may move a singular value across the truncation threshold.  On the converged cells the number of residual
evaluations is asserted exactly too: level 0, then every level from the first
whose H increment meets the gate (an ungated loop evaluates all 22 or 25).
"""

import pytest

from transport_nare.modified_sda_ls import msda_solve
from transport_nare.sda_ls import SolverConfig, sda_ls_solve
from transport_nare.transport_problem import make_instance

CONFIG = SolverConfig(tol_residual=1e-9)


def max_operator_rank(rep):
    return max(max(ranks) for ranks in rep.extras["operator_rank_history"])


@pytest.mark.parametrize("solve,c,alpha,doublings,max_rank,op_rank,residuals", [
    (sda_ls_solve, 0.5, 0.5, 21, 35, 15, 5),
    (sda_ls_solve, 0.9, 0.1, 21, 36, 14, 5),
    (sda_ls_solve, 0.999, 0.001, 24, 36, 14, 7),
    (msda_solve, 0.5, 0.5, 21, 34, 15, 6),
    (msda_solve, 0.9, 0.1, 21, 35, 15, 5),
    (msda_solve, 0.999, 0.001, 24, 34, 14, 8),
], ids=["sda-ls-0.5", "sda-ls-0.9", "sda-ls-0.999",
        "msda-0.5", "msda-0.9", "msda-0.999"])
def test_converge_512_trajectory(solve, c, alpha, doublings, max_rank, op_rank,
                                 residuals):
    _, rep = solve(make_instance(512, c, alpha), config=CONFIG)
    assert rep.termination == "converged"
    assert rep.iterations == doublings
    assert abs(rep.max_rank_seen - max_rank) <= 1
    assert abs(max_operator_rank(rep) - op_rank) <= 1
    assert len(rep.residual_history) == residuals
    assert rep.residual_levels == [0] + list(range(doublings - residuals + 2,
                                                   doublings + 1))


@pytest.mark.parametrize("solve,c,alpha,max_rank,op_rank", [
    (sda_ls_solve, 0.5, 0.5, 11, 10),
    (sda_ls_solve, 0.9, 0.1, 12, 10),
    (sda_ls_solve, 0.999, 0.001, 13, 10),
    (msda_solve, 0.5, 0.5, 11, 10),
    (msda_solve, 0.9, 0.1, 12, 10),
    (msda_solve, 0.999, 0.001, 12, 10),
], ids=["sda-ls-0.5", "sda-ls-0.9", "sda-ls-0.999",
        "msda-0.5", "msda-0.9", "msda-0.999"])
def test_capped_4096_trajectory(solve, c, alpha, max_rank, op_rank):
    # E/F are truncated against max|d_k| (about 1 here), not against their
    # corrections (largest 5e-5 to 7e-4), which kept ranks 12 and 13
    _, rep = solve(make_instance(4096, c, alpha), config=SolverConfig(max_iter=8))
    assert rep.termination == "max_iter"
    assert rep.iterations == 8
    assert abs(rep.max_rank_seen - max_rank) <= 1
    assert abs(max_operator_rank(rep) - op_rank) <= 1
