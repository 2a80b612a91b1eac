"""Doubling-trajectory guard: a kernel swap that shifts the trajectory fails here.

Both large-scale solvers on the three converge-512 cells (n = 512, tol 1e-9),
the benchmark's converged workload.  Doubling counts and terminations are
asserted exactly; the largest factor rank seen (H and G for sda-ls, H for
modified-sda-ls) within one, since roundoff-level changes to a kernel may move
a singular value across the truncation threshold.  The number of residual
evaluations is asserted exactly too: level 0, then every level from the first
whose H increment meets the gate (an ungated loop evaluates all 22 or 25).
"""

import pytest

from transport_nare.modified_sda_ls import msda_solve
from transport_nare.sda_ls import SolverConfig, sda_ls_solve
from transport_nare.transport_problem import make_instance

CONFIG = SolverConfig(tol_residual=1e-9)


@pytest.mark.parametrize("solve,c,alpha,doublings,max_rank,residuals", [
    (sda_ls_solve, 0.5, 0.5, 21, 35, 5),
    (sda_ls_solve, 0.9, 0.1, 21, 36, 5),
    (sda_ls_solve, 0.999, 0.001, 24, 36, 7),
    (msda_solve, 0.5, 0.5, 21, 34, 6),
    (msda_solve, 0.9, 0.1, 21, 35, 5),
    (msda_solve, 0.999, 0.001, 24, 34, 8),
], ids=["sda-ls-0.5", "sda-ls-0.9", "sda-ls-0.999",
        "msda-0.5", "msda-0.9", "msda-0.999"])
def test_converge_512_trajectory(solve, c, alpha, doublings, max_rank, residuals):
    _, rep = solve(make_instance(512, c, alpha), config=CONFIG)
    assert rep.termination == "converged"
    assert rep.iterations == doublings
    assert abs(rep.max_rank_seen - max_rank) <= 1
    assert len(rep.residual_history) == residuals
    assert rep.residual_levels == [0] + list(range(doublings - residuals + 2,
                                                   doublings + 1))
