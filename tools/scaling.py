"""Time and memory of both low-rank solvers as n grows, written to JSON.

    PYTHONPATH=src python tools/scaling.py [OUT.json]

Solves (n, 0.9, 0.1) at tol 1e-8 with sda-ls and modified-sda-ls for n =
1024, 4096, 16384 and 65536, one fresh process per (solver, n), at one
BLAS thread unless ``OPENBLAS_NUM_THREADS`` is set.  Each process builds
the instance, solves it once untraced, for the solve time and the growth of
its peak RSS (``ru_maxrss``) over that solve, and once more with the heap
traced, for the traced peak and the kernel that set it (``PeakKernel`` of
``tools/parity.py``).  A row holds the solver, n, the set-up and solve
times, the doublings, the termination, the final residual, the largest H
rank and the largest E/F rank over the run, the traced peak, the kernel
that set it, the peak in factor widths (peak / (8 n (rank H + rank E/F))),
the peak RSS and its growth.  The rows are flat dicts keyed by ``method``,
so a later method (a polished answer, cold Newton) adds rows or columns
without changing these.  Writes BENCH_scaling.json at the repository root
by default; it runs by hand, not under pytest, and takes a few minutes,
most of it at n = 65536.
"""

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

SIZES = (1024, 4096, 16384, 65536)
CELL = (0.9, 0.1)
TOL = 1e-8
METHODS = ("sda-ls", "modified-sda-ls")
OUT = Path(__file__).resolve().parent.parent / "BENCH_scaling.json"


def one(method, n):
    """One row: both solves of (method, n) in this process."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import resource

    from parity import traced
    from transport_nare.modified_sda_ls import msda_solve
    from transport_nare.sda_ls import SolverConfig, sda_ls_solve
    from transport_nare.transport_problem import make_instance

    solve = {"sda-ls": sda_ls_solve, "modified-sda-ls": msda_solve}[method]
    config = SolverConfig(tol_residual=TOL)
    t0 = time.perf_counter()
    inst = make_instance(n, *CELL)
    setup = time.perf_counter() - t0
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = time.perf_counter()
    _, rep = solve(inst, config)
    seconds = time.perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _, again, peak, kernel = traced(solve, inst, config)
    if again.residual_history != rep.residual_history:
        raise RuntimeError("the traced solve took another path")
    rank_h = max(r[0] for r in rep.rank_history)
    rank_ef = max(max(r) for r in rep.extras["operator_rank_history"])
    return {"method": method, "n": n, "c": CELL[0], "alpha": CELL[1], "tol": TOL,
            "setup_s": setup, "solve_s": seconds, "doublings": rep.iterations,
            "termination": rep.termination, "final_residual": rep.final_residual,
            "rank_h": rank_h, "rank_ef": rank_ef,
            "traced_peak_mb": peak / 1e6, "peak_kernel": kernel,
            "peak_factor_widths": peak / (8.0 * n * (rank_h + rank_ef)),
            "peak_rss_mb": rss * 1024 / 1e6, "rss_growth_mb": (rss - rss0) * 1024 / 1e6}


def main(out):
    rows = []
    for n in SIZES:
        for method in METHODS:
            done = subprocess.run([sys.executable, __file__, "--one", method, str(n)],
                                  check=True, capture_output=True, text=True)
            row = json.loads(done.stdout)
            rows.append(row)
            print("%-15s n=%-6d %2d doublings, %s at %.3g; solve %.2f s, H rank %d, "
                  "E/F rank %d, traced peak %.2f MB in %s, peak RSS %.1f MB (+%.1f)"
                  % (method, n, row["doublings"], row["termination"],
                     row["final_residual"], row["solve_s"], row["rank_h"],
                     row["rank_ef"], row["traced_peak_mb"], row["peak_kernel"],
                     row["peak_rss_mb"], row["rss_growth_mb"]), flush=True)
    import numpy
    doc = {"schema_version": 1,
           "machine": {"system": platform.system(), "processor": platform.machine(),
                       "cpus": os.cpu_count(), "python": platform.python_version(),
                       "numpy": numpy.__version__,
                       "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "1")},
           "rows": rows}
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"] and len(sys.argv) == 4:
        print(json.dumps(one(sys.argv[2], int(sys.argv[3]))))
    elif len(sys.argv) <= 2:
        main(sys.argv[1] if len(sys.argv) == 2 else OUT)
    else:
        sys.exit(__doc__)
