"""Drive the benchmark command over a small sweep and read its CSV.

The command line is `transport-nare bench ...`; this calls the same entry
point in-process.  With the default iteration cap of 8 the sweep is a
per-iteration cost profile, not a convergence study: cells at large n need
25 to 30 doublings to converge.  It measures the per-iteration cost and the
flop ratio between the two solvers; capped cells are recorded with
termination=max_iter rather than dropped.

Both solvers keep the outer iterates as a diagonal plus low rank at every
size, the balanced one in a one-factor symmetric form, so the ratio column
reads about 0.5 at both sizes.
"""

import csv
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from transport_nare.cli_bench import main

outdir = Path(tempfile.mkdtemp(prefix="bench_demo_"))
args = ["bench", "--sizes", "256", "1024", "--cells", "0.5:0.5", "0.9:0.1",
        "--out", str(outdir)]
print("running: transport-nare", " ".join(args))

buf = io.StringIO()
with redirect_stdout(buf), redirect_stderr(io.StringIO()):
    rc = main(args)
print("exit code", rc)

with open(outdir / "bench.csv", newline="") as fh:
    rows = list(csv.DictReader(fh))

print()
print("%-5s %-12s %-16s %-5s %-10s %-12s %-9s %-8s %s" % (
    "n", "cell", "algorithm", "its", "term", "residual", "flops", "wall_s",
    "ratio"))
for row in rows:
    print("%-5s %-12s %-16s %-5s %-10s %-12s %-9.1e %-8s %s" % (
        row["n"], "%s:%s" % (row["c"], row["alpha"]), row["algorithm"],
        row["iterations"], row["termination"], row["final_residual"],
        float(row["total_flops"]), row["wall_time_s"],
        row["modified_over_original"] or "-"))

print()
print("the ratio column compares counted flops of the balanced variant "
      "against the general one per cell.")
print("artifacts in", outdir)
