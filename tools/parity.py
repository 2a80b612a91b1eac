"""Parity of two builds of transport_nare on a fixed set of 36 solves.

    PYTHONPATH=src python tools/parity.py run OUT.npz
    python tools/parity.py compare A1.npz[,A2.npz...] B1.npz[,B2.npz...]

``run`` solves both low-rank solvers on three cells at six configurations with
the ``transport_nare`` on the import path, and records each run's report
(iterations, termination, ranks, residuals, per-level H increments, per-level
step flops and, apart, per-level residual flops), its whole-solve tracemalloc
peak, the kernel that set it (``PeakKernel``) and X on 64 rows sampled with
seed 7.  One traced warm-up solve, the set's first, goes before
the set and is not recorded: allocations made once per process would
otherwise fall in the first run's peak.  On the converged configurations (those with a residual
tolerance) it also records X's relative Frobenius distance to the vector-form
reference of ``perfbench/reference.py`` on those rows, and its largest
relative entry error there.  ``compare`` takes one or more recordings of
each build, comma-separated, and prints every mismatch of the fields that
must be equal against the first recording of A, in any recording of either
build (a list field as its first differing index, both values there and the
count of differing entries).  From the first recording of each build it
prints both builds' reference errors and final residuals, each run's
residual flops, the worst relative distance of X (and of the residuals) and
how many runs give a bit-identical X and a bit-identical residual history.
Each run's PEAK line gives the median traced peak of each build and the
range of A's, says whether B's median lies below, inside or above that
range and names the kernel that set each build's peak (the most common over
its recordings), and a last line counts the three: a traced peak moves by a few kB
between processes running the same code, so an unchanged peak reads as
medians spread on both sides of a few-recording range.  It exits 1
if it printed a MISMATCH line.  The exact ``flops`` field excludes the
residual's, so a change to the residual alone shows in the RESIDUAL lines,
not as a mismatch.  Same bits at a lower peak reads as no MISMATCH line,
every run bit-identical and PEAK lines below A's range.
"""

import importlib
import json
import sys
import tracemalloc
from collections import Counter
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


class PeakKernel:
    """The traced peak of a block and the kernel whose segment holds it.

    Inside the block, the entry and exit of each kernel below read and reset
    tracemalloc's peak, so the solve is cut into segments, each owned by the
    innermost kernel running in it ("step" between the kernels of a
    doubling step, "init" outside any step): a push, an extend, the
    residual or an operator apply.  The whole-solve peak is the largest
    segment peak, so it is what one read at the end would give.  Both
    solvers push E before F and extend H before G in every step, so a
    push's or an extend's call count within its step names its operand.
    The block starts and stops tracing itself: it does not nest in another
    trace.
    """

    PATCHED = (("structured_linalg", "ImplicitIterate", "_push", ("E's push", "F's push")),
               ("sda_ls", None, "extend_triple", ("H extend", "G extend")),
               ("modified_sda_ls", None, "extend_triple", ("H extend",)),
               ("sda_ls", None, "residual_norm", ("the residual",)),
               ("modified_sda_ls", None, "residual_norm", ("the residual",)),
               ("structured_linalg", "ImplicitIterate", "apply", ("an apply",)),
               ("sda_ls", None, "sda_ls_step", None),
               ("modified_sda_ls", None, "msda_step", None))

    def __init__(self):
        self.peak, self.kernel, self.owner, self.calls = 0, None, ["init"], {}

    def cut(self):
        """Close the running segment: keep its peak if it is the largest."""
        peak = tracemalloc.get_traced_memory()[1]
        if peak > self.peak:
            self.peak, self.kernel = peak, self.owner[-1]
        tracemalloc.reset_peak()

    def wrap(self, fn, names):
        def kernel(*args, **kwargs):
            self.cut()
            if names is None:        # a step: its kernels count from one
                self.calls, owner = {}, "step"
            else:
                count = self.calls[names] = self.calls.get(names, 0) + 1
                owner = names[min(count, len(names)) - 1]
            self.owner.append(owner)
            try:
                return fn(*args, **kwargs)
            finally:
                self.cut()
                self.owner.pop()
        return kernel

    def __enter__(self):
        self.saved = []
        for module, cls, attr, names in self.PATCHED:
            owner = importlib.import_module("transport_nare." + module)
            owner = getattr(owner, cls) if cls else owner
            self.saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, self.wrap(getattr(owner, attr), names))
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        self.cut()
        tracemalloc.stop()
        for owner, attr, fn in reversed(self.saved):
            setattr(owner, attr, fn)


def traced(solve, inst, config):
    """Solve with the heap traced; (X, report, peak in bytes, its kernel)."""
    with PeakKernel() as peak:
        X, rep = solve(inst, config)
    return X, rep, peak.peak, peak.kernel


def run(out):
    from transport_nare.modified_sda_ls import msda_solve
    from transport_nare.sda_ls import SolverConfig, sda_ls_solve
    from transport_nare.transport_problem import make_instance

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
                X, rep, peak, kernel = traced(solve, inst, SolverConfig(**fields))
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
                    "peak_mb": peak / 1e6, "peak_kernel": kernel}
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
    paths_a, paths_b = a.split(","), b.split(",")
    recorded = {path: load(path)[0] for path in paths_a + paths_b}
    (ma, xa), (mb, xb) = load(paths_a[0]), load(paths_b[0])
    if any(list(m) != list(ma) for m in recorded.values()):
        sys.exit("the files hold different run sets")
    worst_x = worst_res = identical = same_res = mismatches = 0
    peak_sides = dict.fromkeys(("below", "inside", "above"), 0)
    for key, x1, x2 in zip(ma, xa, xb):
        ra, rb = ma[key], mb[key]
        for path, m in recorded.items():
            for field in EXACT:
                if m[key][field] != ra[field]:
                    mismatches += 1
                    print("MISMATCH %s %s (%s): %s"
                          % (key, field, path, mismatch(ra[field], m[key][field])))
        if "ref_distance" in ra and "ref_distance" in rb:
            print("REFERENCE %s: distance %.3g -> %.3g, max entry error %.3g -> %.3g, "
                  "final residual %.4g -> %.4g"
                  % (key, ra["ref_distance"], rb["ref_distance"], ra["ref_max_entry"],
                     rb["ref_max_entry"], ra["residuals"][-1], rb["residuals"][-1]))
        peaks_a = [recorded[path][key]["peak_mb"] for path in paths_a]
        pa, pb = np.median(peaks_a), np.median([recorded[path][key]["peak_mb"]
                                                for path in paths_b])
        side = "below" if pb < min(peaks_a) else "above" if pb > max(peaks_a) else "inside"
        peak_sides[side] += 1
        ka, kb = (Counter(recorded[path][key]["peak_kernel"] for path in paths)
                  .most_common(1)[0][0] for paths in (paths_a, paths_b))
        print("PEAK %s: median %.4f -> %.4f MB (%+.1f kB), A range [%.4f, %.4f], %s; "
              "set in %s -> %s"
              % (key, pa, pb, 1e3 * (pb - pa), min(peaks_a), max(peaks_a), side, ka, kb))
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
    print("B's median peak lies below A's range on %(below)d runs, inside it on "
          "%(inside)d, above it on %(above)d" % peak_sides)
    if mismatches:
        sys.exit(1)


if __name__ == "__main__":
    command, nargs = {"run": (run, 1), "compare": (compare, 2)}.get(
        sys.argv[1] if len(sys.argv) > 1 else "", (None, -1))
    if len(sys.argv) != 2 + nargs:
        sys.exit(__doc__)
    command(*sys.argv[2:])
