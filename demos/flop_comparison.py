"""Why the balanced variant is cheaper: counted flops and operator applies.

After balancing, the four doubling coefficients become symmetric and the
two solution-side iterates coincide, so each step needs one large implicit
product per operator instead of two.  The flop counters make that visible:
the per-iteration ratio settles near 0.5 once ranks stabilize, and the
implicit-apply event counter reads 2 against 4 every iteration.

The run also prints the symmetry audit that justifies the shared-factor
shortcut.
"""

from transport_nare.modified_sda_ls import audit_symmetry, msda_solve
from transport_nare.sda_ls import SolverConfig, sda_ls_solve
from transport_nare.transport_problem import make_instance

inst = make_instance(1024, 0.9, 0.1)
cfg = SolverConfig(max_iter=6)

_, rep_ls = sda_ls_solve(inst, config=cfg)
_, rep_m = msda_solve(inst, config=cfg)

print("n=1024 c=0.9 a=0.1, first %d iterations" % cfg.max_iter)
print("k   general flops   balanced flops   ratio   applies")
for k in range(1, cfg.max_iter + 1):
    ls = rep_ls.flops.iteration_total(k, exclude=("residual",))
    mo = rep_m.flops.iteration_total(k, exclude=("residual",))
    print("%-3d %-15.3e %-16.3e %.3f   %d vs %d"
          % (k, ls, mo, mo / ls,
             rep_m.flops.iteration_events(k, "implicit_block_apply"),
             rep_ls.flops.iteration_events(k, "implicit_block_apply")))

print()
print("kernel breakdown for iteration 4 of the general solver:")
for kernel, count in sorted(rep_ls.flops.snapshot(4).items()):
    print("  %-22s %.3e" % (kernel, count))

print()
print("symmetry audit (balanced run, n=32, no truncation, k <= 4):")
audit = audit_symmetry(make_instance(32, 0.9, 0.1), k_max=4,
                       config=SolverConfig(trunc_rel=0.0))
for row in audit.rows:
    print("  k=%d rank=%-3d product=%.1e spectrum=%.1e op_probe=%.1e rank_update=%.1e"
          % (row["k"], row["rank_h"], row["dev_product"], row["dev_spectrum"],
             row["dev_op_probe"], row["dev_rank_update"]))
print("  max gated deviation: %.2e" % audit.max_gated())
