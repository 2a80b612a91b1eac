"""Large-scale runs: n = 4096 to convergence with O(n) storage.

At this size the doubling shift sits around 2e7 (it grows with the inverse
of the smallest quadrature node, roughly n^2), and the iteration needs 27 to
30 doublings.  The outer iterates E_k and F_k are kept as a diagonal plus a
few low-rank columns, so a doubling costs O(n r^2) at every k and both
large-scale solvers run to convergence in seconds.  The tolerance is 1e-8:
the default 1e-12 lies below the doubling floor at this n (about eps times
the shift), and sda-ls settles between 7e-10 and 1.4e-9.

The demo prints, for one cell, the relative H increment, the rank of H and
the ranks of the E/F corrections after every doubling with its wall time, and
the residual on the levels where the solver computed one (level 0, then every
level from the first whose increment met the gate).  A level's wall time
includes the residual computed on it.  Then comes a summary of both
solvers on all three standard cells.  It then times capped runs at
half the size to exhibit linear growth, traces the heap of one capped solve
per solver at n = 2048 and 4096 in a separate pass (so no timed run is
traced), and finishes with the round-trips of the four Sherman-Morrison
solves that level 0's closed form is checked against (no solve calls them:
``BaseOperators`` builds level 0 from four scaled n-vectors).  A peak is
given in MB and in factor widths: peak / (8 n (rank H + rank E/F)), the
largest ranks of the run, so O(n) storage reads as a width that stays flat
when n doubles.
"""

import statistics
import tracemalloc

import numpy as np

from transport_nare.modified_sda_ls import msda_solve
from transport_nare.sda_ls import SolverConfig, sda_ls_solve
from transport_nare.structured_linalg import ShiftedSolver, gamma_select
from transport_nare.transport_problem import make_instance

N = 4096
CELLS = ((0.5, 0.5), (0.9, 0.1), (0.999, 0.001))
SOLVERS = (("sda-ls", sda_ls_solve), ("modified-sda-ls", msda_solve))
cfg = SolverConfig(tol_residual=1e-8)

runs = {}
for c, a in CELLS:
    inst = make_instance(N, c, a)
    for name, solve in SOLVERS:
        runs[(c, a, name)] = solve(inst, config=cfg)[1]

inst = make_instance(N, 0.9, 0.1)
print("n=%d c=0.9 a=0.1: shift %.3e, tol %g" % (N, gamma_select(inst), cfg.tol_residual))
print("      %-46s %s" % ("sda-ls", "modified-sda-ls"))
print("k     " + "   ".join(["increment residual  H rank  E/F ranks  seconds"] * 2))
reps = [runs[(0.9, 0.1, name)] for name, _ in SOLVERS]
for k in range(max(r.iterations for r in reps) + 1):
    cols = []
    for r in reps:
        if k <= r.iterations:
            e, f = r.extras["operator_rank_history"][k]
            res = dict(zip(r.residual_levels, r.residual_history))
            cols.append("%.2e  %-8s  %-6d  %2d, %-5d  %.3f" % (
                r.extras["increments"][k], "%.2e" % res[k] if k in res else "-",
                max(r.rank_history[k]), e, f, r.iter_times[k]))
        else:
            cols.append(" " * 44)
    print("%-5d %s   %s" % (k, cols[0], cols[1]))

print()
print("all cells at n=%d, tol %g:" % (N, cfg.tol_residual))
print("cell         solver           termination  its  residual  max H  max E/F  "
      "seconds  s/iter first,median,last")
for (c, a, name), r in runs.items():
    t = r.iter_times[1:]
    print("%-12s %-16s %-12s %-4d %.2e  %-5d  %-7d  %-7.2f  %.3f, %.3f, %.3f" % (
        "%g:%g" % (c, a), name, r.termination, r.iterations, r.final_residual,
        r.max_rank_seen, max(max(p) for p in r.extras["operator_rank_history"]),
        sum(r.iter_times), t[0], statistics.median(t), t[-1]))

print()
print("per-iteration wall time when n doubles (sda-ls, 8 doublings):")
capped = SolverConfig(max_iter=8)
med = {}
for n in (2048, 4096):
    _, r = sda_ls_solve(make_instance(n, 0.9, 0.1), config=capped)
    med[n] = statistics.median(r.iter_times[1:])
    print("  n=%-5d median %.4f s/iter" % (n, med[n]))
print("  ratio %.2f (2.0 is ideal linear scaling)" % (med[4096] / med[2048]))

print()
print("traced heap peak of one capped solve (0.9:0.1, 8 doublings):")
for n in (2048, 4096):
    capped_inst = make_instance(n, 0.9, 0.1)
    for name, solve in SOLVERS:
        tracemalloc.start()
        _, r = solve(capped_inst, config=capped)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        ef = max(max(p) for p in r.extras["operator_rank_history"])
        print("  n=%-5d %-16s %.2f MB = %.1f factor widths (H rank %d, E/F rank %d)"
              % (n, name, peak / 1e6, peak / (8.0 * n * (r.max_rank_seen + ef)),
                 r.max_rank_seen, ef))

print()
print("Sherman-Morrison reference round-trips at n=%d (100 probes):" % N)
solver = ShiftedSolver(inst, gamma_select(inst))
for which in ShiftedSolver.WHICH:
    print("  %s: %.2e" % (which, solver.roundtrip_error(which, probes=100)))
