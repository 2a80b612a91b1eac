"""Parity of two builds of transport_nare on a fixed set of 36 solves.

    PYTHONPATH=src python tools/parity.py run OUT.npz
    python tools/parity.py compare A.npz B.npz

``run`` solves both low-rank solvers on three cells at six configurations with
the ``transport_nare`` on the import path, and records each run's report
(iterations, termination, ranks, residuals, per-level H increments, per-level
step flops and, apart, per-level residual flops), its whole-solve tracemalloc
peak and X on 64 rows sampled with seed 7.  One traced warm-up solve, the set's first, goes before
the set and is not recorded: allocations made once per process would
otherwise fall in the first run's peak.  On the converged configurations (those with a residual
tolerance) it also records X's relative Frobenius distance to the vector-form
reference of ``perfbench/reference.py`` on those rows, and its largest
relative entry error there.  ``compare`` prints every mismatch of the fields
that must be equal (a list field as its first differing index, both values
there and the count of differing entries), both builds' reference errors and
final residuals, each run's traced peak and residual flops in both builds,
the worst relative distance of X (and of the residuals) and how many runs
give a bit-identical X and a bit-identical residual history, and exits 1 if
it printed a MISMATCH line.  The exact ``flops`` field excludes the
residual's, so a change to the residual alone shows in the RESIDUAL lines,
not as a mismatch.  Same bits at a lower peak reads as no MISMATCH line,
every run bit-identical and PEAK lines that fall.
"""

import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import reference  # noqa: E402

CELLS = ((0.5, 0.5), (0.9, 0.1), (0.999, 0.001))
#: (n, SolverConfig fields) of each configuration
CONFIGS = ((512, {"tol_residual": 1e-9}), (4096, {"max_iter": 8}), (64, {}),
           (4096, {"tol_residual": 1e-8}), (32, {"trunc_rel": 0.0}),
           (64, {"trunc_rel": 0.0}))
ROWS, SEED = 64, 7
EXACT = ("iterations", "termination", "max_rank", "residual_levels", "ranks",
         "operator_ranks", "increments", "flops")


def run(out):
    from transport_nare.modified_sda_ls import msda_solve
    from transport_nare.sda_ls import SolverConfig, sda_ls_solve
    from transport_nare.transport_problem import make_instance

    def traced(solve, inst, config):
        tracemalloc.start()
        X, rep = solve(inst, config)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return X, rep, peak

    (n, fields), (c, alpha) = CONFIGS[0], CELLS[0]
    traced(sda_ls_solve, make_instance(n, c, alpha), SolverConfig(**fields))
    meta, xs = {}, []
    for n, fields in CONFIGS:
        rows = np.sort(np.random.default_rng(SEED).choice(n, min(n, ROWS), replace=False))
        for c, alpha in CELLS:
            inst = make_instance(n, c, alpha)
            ref = (reference.solve_reference(inst.delta, inst.d, inst.q).rows(rows)
                   if "tol_residual" in fields else None)
            for solve in (sda_ls_solve, msda_solve):
                X, rep, peak = traced(solve, inst, SolverConfig(**fields))
                key = "%s n=%d c=%g alpha=%g %s" % (
                    rep.algorithm, n, c, alpha, json.dumps(fields))
                x = (X.left[rows] * X.core) @ X.right.T
                meta[key] = {
                    "iterations": rep.iterations, "termination": rep.termination,
                    "max_rank": rep.max_rank_seen,
                    "residual_levels": rep.residual_levels,
                    "residuals": rep.residual_history,
                    "ranks": rep.rank_history,
                    "operator_ranks": rep.extras["operator_rank_history"],
                    "increments": rep.extras["increments"],
                    "flops": [rep.flops.iteration_total(k, exclude=("residual",))
                              for k in range(rep.iterations + 1)],
                    "residual_flops": [rep.flops.snapshot(k).get("residual", 0.0)
                                       for k in range(rep.iterations + 1)],
                    "peak_mb": peak / 1e6}
                if ref is not None:
                    meta[key]["ref_distance"] = float(
                        np.linalg.norm(x - ref) / np.linalg.norm(ref))
                    meta[key]["ref_max_entry"] = float(np.max(np.abs(x - ref) / ref))
                xs.append(x)
                print(key, rep.termination, rep.iterations, flush=True)
    np.savez_compressed(out, meta=json.dumps(meta),
                        **{"X%d" % i: x for i, x in enumerate(xs)})


def load(path):
    with np.load(path) as f:
        meta = json.loads(str(f["meta"]))
        return meta, [f["X%d" % i] for i in range(len(meta))]


def mismatch(a, b):
    """How two differing field values differ: a list as its first differing
    index, both values there and the count of differing entries."""
    if not (isinstance(a, list) and isinstance(b, list)):
        return "%s != %s" % (a, b)
    diff = [i for i in range(max(len(a), len(b))) if a[i:i + 1] != b[i:i + 1]]
    return "first at [%d]: %s != %s; %d of %d/%d entries differ" % (
        diff[0], a[diff[0]:diff[0] + 1], b[diff[0]:diff[0] + 1], len(diff),
        len(a), len(b))


def compare(a, b):
    (ma, xa), (mb, xb) = load(a), load(b)
    if list(ma) != list(mb):
        sys.exit("the two files hold different run sets")
    worst_x = worst_res = identical = same_res = mismatches = 0
    for key, x1, x2 in zip(ma, xa, xb):
        ra, rb = ma[key], mb[key]
        for field in EXACT:
            if ra[field] != rb[field]:
                mismatches += 1
                print("MISMATCH %s %s: %s"
                      % (key, field, mismatch(ra[field], rb[field])))
        if "ref_distance" in ra and "ref_distance" in rb:
            print("REFERENCE %s: distance %.3g -> %.3g, max entry error %.3g -> %.3g, "
                  "final residual %.4g -> %.4g"
                  % (key, ra["ref_distance"], rb["ref_distance"], ra["ref_max_entry"],
                     rb["ref_max_entry"], ra["residuals"][-1], rb["residuals"][-1]))
        if "peak_mb" in ra and "peak_mb" in rb:
            print("PEAK %s: %.4f -> %.4f MB (%+.1f%%)" % (
                key, ra["peak_mb"], rb["peak_mb"],
                100.0 * (rb["peak_mb"] / ra["peak_mb"] - 1.0)))
        if "residual_flops" in ra and "residual_flops" in rb:
            fa, fb = sum(ra["residual_flops"]), sum(rb["residual_flops"])
            print("RESIDUAL %s: %.0f -> %.0f flops (%+.1f%%)"
                  % (key, fa, fb, 100.0 * (fb / fa - 1.0)))
        same_res += ra["residuals"] == rb["residuals"]
        if ra["residual_levels"] == rb["residual_levels"]:
            r1, r2 = np.array(ra["residuals"]), np.array(rb["residuals"])
            worst_res = max(worst_res, float(np.max(np.abs(r1 - r2) / r1)))
        identical += np.array_equal(x1, x2)
        worst_x = max(worst_x, float(np.linalg.norm(x1 - x2) / np.linalg.norm(x1)))
    print("%d runs, X bit-identical on %d, residual history on %d; worst relative "
          "X distance %.3g, worst relative residual difference %.3g"
          % (len(ma), identical, same_res, worst_x, worst_res))
    if mismatches:
        sys.exit(1)


if __name__ == "__main__":
    command, nargs = {"run": (run, 1), "compare": (compare, 2)}.get(
        sys.argv[1] if len(sys.argv) > 1 else "", (None, -1))
    if len(sys.argv) != 2 + nargs:
        sys.exit(__doc__)
    command(*sys.argv[2:])
