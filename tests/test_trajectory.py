"""Doubling-trajectory guard: a kernel swap that shifts the trajectory fails here.

Both large-scale solvers on the three converge-512 cells (n = 512, tol 1e-9),
the benchmark's converged workload.  Doubling counts and terminations are
asserted exactly; the largest factor rank seen (H and G for sda-ls, H for
modified-sda-ls) within one, since roundoff-level changes to a kernel may move
a singular value across the truncation threshold.
"""

import pytest

from transport_nare.modified_sda_ls import msda_solve
from transport_nare.sda_ls import SolverConfig, sda_ls_solve
from transport_nare.transport_problem import make_instance

CONFIG = SolverConfig(tol_residual=1e-9)


@pytest.mark.parametrize("solve,c,alpha,doublings,max_rank", [
    (sda_ls_solve, 0.5, 0.5, 21, 35),
    (sda_ls_solve, 0.9, 0.1, 21, 36),
    (sda_ls_solve, 0.999, 0.001, 24, 36),
    (msda_solve, 0.5, 0.5, 21, 34),
    (msda_solve, 0.9, 0.1, 21, 35),
    (msda_solve, 0.999, 0.001, 24, 34),
], ids=["sda-ls-0.5", "sda-ls-0.9", "sda-ls-0.999",
        "msda-0.5", "msda-0.9", "msda-0.999"])
def test_converge_512_trajectory(solve, c, alpha, doublings, max_rank):
    _, rep = solve(make_instance(512, c, alpha), config=CONFIG)
    assert rep.termination == "converged"
    assert rep.iterations == doublings
    assert abs(rep.max_rank_seen - max_rank) <= 1
