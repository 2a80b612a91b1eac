"""Cross-check the low-rank solvers against the dense doubling oracle.

Runs a small grid of transport cells, compares final solutions in relative
Frobenius norm, and prints iteration counts and final ranks.  The dense
solver keeps full matrices and is the ground truth at these sizes; the
low-rank solvers should agree to ~1e-12 while carrying ranks far below n.

Also prints, for one cell, the mirrored spectrum of the flow matrix against
the closed-loop eigenvalues sigma(E - C X) u sigma(A - B Y) (expect ~1e-13).
"""

import numpy as np

from transport_nare.dense_sda import dense_sda_solve, spectral_check
from transport_nare.modified_sda_ls import msda_solve
from transport_nare.sda_ls import sda_ls_solve
from transport_nare.transport_problem import assemble_dense, make_instance

print("%-22s %-10s %-22s %-22s" % ("cell", "dense", "low-rank", "balanced"))
for n in (16, 32, 64):
    for c, alpha in ((0.5, 0.5), (0.9, 0.1), (0.999, 0.001)):
        inst = make_instance(n, c, alpha)
        Xd, _, drep = dense_sda_solve(inst)
        scale = np.linalg.norm(Xd)

        Hl, lrep = sda_ls_solve(inst)
        Xm, mrep = msda_solve(inst)
        dl = np.linalg.norm(Hl.dense() - Xd) / scale
        dm = np.linalg.norm(Xm.dense() - Xd) / scale
        print("%-22s it=%-3d    diff=%.2e it=%-3d r=%-3d diff=%.2e it=%-3d r=%-3d"
              % ("n=%d c=%g a=%g" % (n, c, alpha), drep.iterations,
                 dl, lrep.iterations, max(lrep.rank_history[-1]),
                 dm, mrep.iterations, max(mrep.rank_history[-1])))

print()
inst = make_instance(8, 0.5, 0.5)
srep = spectral_check(inst)
X, Y, _ = dense_sda_solve(inst)
A, B, C, E = assemble_dense(inst)
closed = np.concatenate([np.linalg.eigvals(E - C @ X), np.linalg.eigvals(A - B @ Y)])
print("n=8 (c=0.5, a=0.5): mirrored vs closed-loop spectrum: %.3e"
      % np.max(np.abs(np.sort(srep.mirrored) - np.sort(closed))))
print("flow-matrix eigenvalues:", np.round(srep.h_eigenvalues, 3))
