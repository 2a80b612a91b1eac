"""Time to a checked solution of transport Riccati equations, per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload converge-512 --seed 1 --seconds 40 --trace 0

One run builds the workload's instances, computes the vector-form reference of
each (``reference.py``), repeats timed passes of every solve, each after a
timed rebuild of the instances, until ``--seconds`` have passed, then runs the
workload's once-only solvers (dense-sda on converge-512) in one pass, and one
more pass with the heap traced for the peak-memory metrics.  Every returned
solution is checked.  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` the package's calls
are wrapped in spans (``spans.py``), the per-layer metrics are printed instead
and the spans are written to ``perfbench/out/``.  See README.md for the workloads and the
metrics.
"""

import argparse
import ctypes
import glob
import json
import os
import statistics
import sys
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread, set before numpy loads OpenBLAS.  At its default of 2
# threads (= nproc) the second thread spins, and the solves run about twice
# as slow and twice as noisy (README, "BLAS").
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import reference

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

CELLS = ((0.5, 0.5), (0.9, 0.1), (0.999, 0.001))
SOLVERS = ("dense-sda", "sda-ls", "modified-sda-ls")

#: timed passes per run at least, so no time rests on one interval
MIN_PASSES = 3
#: rows of X sampled (from the seed) for the checks at n = 4096
SAMPLED_ROWS = 64
#: the smoke run solves one cell at this n with each workload's config
SMOKE_N = 64

#: Share of the minimal solution's mass that H_8 holds, e^T H_8 e / e^T X e,
#: per (n, c, alpha) at max_iter = 8: the smaller of the sda-ls and
#: modified-sda-ls figures, cut to 14 digits.  H_8 is fixed by the doubling
#: itself, so an iterate that falls short of it by more than PROGRESS_BOUND
#: (relative) did less than 8 doublings' work.  The two solvers agree to 1e-14.
PROGRESS_FLOOR = {
    (64, 0.5, 0.5): 2.9394745461539e-01,
    (4096, 0.5, 0.5): 1.1656792685521e-04,
    (4096, 0.9, 0.1): 8.1138557342687e-05,
    (4096, 0.999, 0.001): 4.7167237660825e-05,
}
PROGRESS_BOUND = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: tuple
    solvers: tuple
    config: dict
    termination: str
    once: tuple = ()    # solvers run in one untimed pass after the timed ones
    residual_bound: float = 0.0
    distance_bound: float = 0.0
    agreement_bound: float = 0.0
    reported_bound: float = 0.0


WORKLOADS = {w.name: w for w in (
    # Converged solves at the default tolerance; the only place dense-sda runs.
    Workload("grid-64", (16, 32, 64), SOLVERS, {}, "converged",
             residual_bound=1e-11, distance_bound=1e-11),
    # Converged solves at the largest n with a dense image of E_k/F_k; the
    # default tol 1e-12 lies below the doubling floor here, so it is stated.
    # dense-sda, the n^3 oracle, takes 3 to 4 times as long as both others
    # together, so it runs once per run, not in the timed passes.
    Workload("converge-512", (512,), SOLVERS[1:], {"tol_residual": 1e-9},
             "converged", once=("dense-sda",), residual_bound=1e-8,
             distance_bound=1e-8),
    # A fixed doubling budget at n = 4096: the cost of one doubling through the
    # implicit recursion, checked as an iterate below the minimal solution.
    Workload("capped-4096", (4096,), SOLVERS[1:], {"max_iter": 8}, "max_iter",
             agreement_bound=1e-10, reported_bound=1e-10),
)}

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s.sda-ls", "s"),
    ("solve_s.modified-sda-ls", "s"),
    ("peak_mb.sda-ls", "MB"),
    ("peak_mb.modified-sda-ls", "MB"),
)

#: spans whose self time is a per-layer metric, named "<span>_s"
TIMED_SPANS = (
    "transport_problem.gauss_legendre",
    "transport_problem.build_instance",
    "structured_linalg.base_apply",
    "structured_linalg.implicit_apply",
    "structured_linalg.push_update",
    "structured_linalg.orthonormalize",
    "structured_linalg.truncated_svd",
    "structured_linalg.residual_norm",
    "structured_linalg.smw_solve",
    "sda_ls.step",
    "modified_sda_ls.step",
    "dense_sda.step",
    "dense_sda.residual",
)

#: solver -> module name used in per-layer metric names
MODULE = {"dense-sda": "dense_sda", "sda-ls": "sda_ls",
          "modified-sda-ls": "modified_sda_ls"}

PER_LAYER = tuple(span + "_s" for span in TIMED_SPANS) + (
    "structured_linalg.residual_norm_calls",
    "structured_linalg.base_apply_cols",
    "structured_linalg.implicit_apply_calls",
    "sda_ls.doublings", "modified_sda_ls.doublings", "dense_sda.doublings",
    "sda_ls.flops", "modified_sda_ls.flops",
    "sda_ls.max_rank", "modified_sda_ls.max_rank",
    "sda_ls.cpu_s", "modified_sda_ls.cpu_s",
    "dense_sda.solve_s",
)


def unit_of(metric):
    return "s" if metric.endswith("_s") else "count"


def import_package():
    """Put the checkout's source first on the path; refuse to run without it."""
    if not (SRC / "transport_nare" / "__init__.py").is_file():
        sys.exit("error: %s/transport_nare not found; run from a checkout of "
                 "the repository" % SRC)
    sys.path.insert(0, str(SRC))
    import transport_nare
    if Path(transport_nare.__file__).resolve().parent != SRC / "transport_nare":
        sys.exit("error: imported transport_nare from %s, not from %s"
                 % (transport_nare.__file__, SRC))
    return transport_nare


def blas_threads():
    """Thread counts of the OpenBLAS libraries numpy and scipy loaded."""
    counts = []
    for module in ("numpy", "scipy"):
        libdir = Path(sys.modules[module].__file__).resolve().parent.parent / (
            module + ".libs")
        for path in sorted(glob.glob(str(libdir / "lib*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    counts.append("%s %d" % (module, fn()))
                    break
    return ", ".join(counts) or None


class Bench:
    """One run of one workload: instances, references, passes and checks."""

    def __init__(self, pkg, workload, seed, recorder=None, smoke=False):
        self.pkg = pkg
        self.w = workload
        self.recorder = recorder
        self.config = pkg.SolverConfig(**workload.config)
        rng = np.random.default_rng(seed)
        cells = [(n, c, a) for n in workload.sizes for c, a in CELLS]
        if smoke:
            cells = [(SMOKE_N,) + CELLS[0]]
        self.cells = [cells[i] for i in rng.permutation(len(cells))]
        n_max = max(n for n, _, _ in self.cells)
        self.rows = np.sort(rng.choice(n_max, min(SAMPLED_ROWS, n_max), replace=False))
        self.attempted = 0
        self.failures = []      # (solve, reason) of solves that did not deliver
        self.bad_checks = []    # (solve, check, value, bound) of wrong outputs
        self.instances = None
        self.references = None

    # -- spans --------------------------------------------------------------

    def span(self, name, request):
        if self.recorder is None:
            return nullcontext()
        return self.recorder.span(name, request)

    def mark(self):
        return len(self.recorder.spans) if self.recorder is not None else 0

    # -- set-up -------------------------------------------------------------

    def set_up(self, label):
        """Build every cell's instance; returns the wall seconds it took."""
        t0 = time.perf_counter()
        instances = {}
        for cell in self.cells:
            with self.span("transport_problem.make_instance",
                           "%s n=%d c=%g alpha=%g" % ((label,) + cell)):
                instances[cell] = self.pkg.make_instance(*cell)
        seconds = time.perf_counter() - t0
        self.instances = instances
        return seconds

    def make_references(self):
        self.references = {
            cell: reference.solve_reference(inst.delta, inst.d, inst.q)
            for cell, inst in self.instances.items()}

    # -- solves -------------------------------------------------------------

    def _call(self, solver, inst):
        if solver == "dense-sda":
            X, _, report = self.pkg.dense_sda_solve(inst, self.config)
            return X, report
        if solver == "sda-ls":
            return self.pkg.sda_ls_solve(inst, self.config)
        return self.pkg.msda_solve(inst, self.config)

    def solve_pass(self, label, heap=False, solvers=None):
        """One solve of every (cell, solver); returns per-solver records."""
        solvers = solvers or self.w.solvers
        out = {s: {"wall": {}, "cpu": 0.0, "peak": 0.0, "reports": []}
               for s in solvers}
        for cell in self.cells:
            inst = self.instances[cell]
            results = {}
            for solver in solvers:
                tag = "%s n=%d c=%g alpha=%g" % ((solver,) + cell)
                self.attempted += 1
                if heap:
                    tracemalloc.start()
                c0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    with self.span(MODULE[solver] + ".solve", "%s %s" % (label, tag)):
                        X, report = self._call(solver, inst)
                except Exception as exc:   # a raising solve is a failed solve
                    self.failures.append((tag, "raised %s: %s" % (type(exc).__name__, exc)))
                    continue
                finally:
                    wall = time.perf_counter() - t0
                    cpu = time.process_time() - c0
                    if heap:
                        peak = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                rec = out[solver]
                rec["wall"][cell] = wall
                rec["cpu"] += cpu
                if heap:
                    rec["peak"] = max(rec["peak"], peak / 1e6)
                rec["reports"].append(report)
                results[solver] = (X, report)
                if not self.guarded(self.check, tag, cell, X, report):
                    self.failures.append((tag, "check raised"))
            self.guarded(self.check_pair, "agreement n=%d c=%g alpha=%g" % cell,
                         cell, results)
        return out

    # -- checks -------------------------------------------------------------

    def guarded(self, check, tag, *args):
        """Run a check; an answer the check cannot even read is a wrong answer."""
        try:
            check(tag, *args)
            return True
        except Exception as exc:
            self.bad_checks.append((tag, "raised %s: %s" % (type(exc).__name__, exc),
                                    float("nan"), float("nan")))
            return False

    def _record(self, tag, checks, report=None):
        bad = reference.failed_checks(checks)
        for name, value, bound in bad:
            self.bad_checks.append((tag, name, value, bound))
        if report is None:
            return
        if bad:
            self.failures.append((tag, "failed check %s" % bad[0][0]))
        elif report.termination != self.w.termination:
            self.failures.append((tag, "ended %s, expected %s"
                                  % (report.termination, self.w.termination)))

    def check(self, tag, cell, X, report):
        ref, inst = self.references[cell], self.instances[cell]
        if self.w.termination == "converged":
            checks = reference.check_converged(ref, inst.q, X, self.w.residual_bound,
                                              self.w.distance_bound)
        else:
            reported = (report.final_residual if report.algorithm == "sda-ls"
                        else report.extras["residual_original"])
            own = reference.residual(inst.delta, inst.d, inst.q, X)
            checks = (reference.check_iterate(ref, X, self.rows)
                      + reference.check_progress(ref, X, PROGRESS_FLOOR[cell],
                                                 PROGRESS_BOUND)
                      + reference.check_reported(reported, own, self.w.reported_bound))
        self._record(tag, checks, report)

    def check_pair(self, tag, cell, results):
        """Balancing commutes with doubling: both iterates must agree."""
        if self.w.agreement_bound and len(results) == 2:
            (Xa, _), (Xb, _) = results["sda-ls"], results["modified-sda-ls"]
            self._record(tag, reference.check_agreement(Xa, Xb, self.rows,
                                                       self.w.agreement_bound))


def counts_of(reports):
    """Counts that repeat exactly, summed over one pass of one solver."""
    doublings = sum(r.iterations for r in reports)
    flops = sum(r.flops.total() for r in reports)
    max_rank = max((r.max_rank_seen for r in reports), default=0)
    cols = calls = 0
    for r in reports:
        for (_, label), count in r.flops.events.items():
            if label == "base_apply_cols":
                cols += count
            elif label == "implicit_block_apply":
                calls += count
    return doublings, flops, max_rank, cols, calls


def solve_seconds(passes, solver, cells):
    """Per cell the median over passes, summed over the cells."""
    total = 0.0
    for cell in cells:
        times = [p[solver]["wall"][cell] for p in passes if cell in p[solver]["wall"]]
        total += statistics.median(times) if times else 0.0
    return total


def count_row(out):
    """Counts and CPU time of one pass, by per-layer metric name."""
    row = {"structured_linalg.base_apply_cols": 0,
           "structured_linalg.implicit_apply_calls": 0}
    for solver, rec in out.items():
        mod = MODULE[solver]
        doublings, flops, max_rank, cols, calls = counts_of(rec["reports"])
        row["structured_linalg.base_apply_cols"] += cols
        row["structured_linalg.implicit_apply_calls"] += calls
        row[mod + ".doublings"] = doublings
        row[mod + ".flops"] = flops
        row[mod + ".max_rank"] = max_rank
        row[mod + ".cpu_s"] = rec["cpu"]
    return row


def layer_metrics(passes, pass_ranges, setup_ranges, once, once_range, recorder):
    """Per-layer values: medians over passes (set-up layers: over set-ups;
    dense_sda: the once pass, where the workload has one)."""
    def median_over(ranges, span, idx):
        return statistics.median(recorder.summary(a, b).get(span, (0.0, 0))[idx]
                                 for a, b in ranges)

    vals = {}
    for span in TIMED_SPANS:
        ranges = pass_ranges
        if span.startswith("transport_problem."):
            ranges = setup_ranges
        elif span.startswith("dense_sda.") and once_range:
            ranges = [once_range]
        vals[span + "_s"] = median_over(ranges, span, 0)
    vals["structured_linalg.residual_norm_calls"] = median_over(
        pass_ranges, "structured_linalg.residual_norm", 1)
    rows = [count_row(out) for out in passes]
    for metric in rows[0]:
        vals[metric] = statistics.median(row[metric] for row in rows)
    if once:
        for metric, value in count_row(once).items():
            vals.setdefault(metric, value)
    return {m: vals.get(m, 0.0) for m in PER_LAYER}


def run(workload, seed, seconds, trace, smoke=False, out_dir=None):
    pkg = import_package()
    recorder = None
    if trace:
        from spans import Recorder, instrument
        recorder = Recorder()
    bench = Bench(pkg, workload, seed, recorder=recorder, smoke=smoke)
    threads = blas_threads()
    print("workload %s seed %d seconds %g trace %d; OpenBLAS threads %s; cells %s"
          % (workload.name, seed, seconds, trace, threads,
             " ".join("%d:%g:%g" % c for c in bench.cells)))
    ctx = instrument(recorder) if trace else nullcontext()
    with ctx:
        bench.set_up("warm-up")     # untimed: the instances the references need
        bench.make_references()
        # Every timed pass follows a timed build of all instances, so set-up
        # and solve times sample the same stretch of the machine's speed.
        setup_times, setup_ranges, passes, pass_ranges = [], [], [], []
        start = time.perf_counter()
        while (len(passes) < (1 if smoke else MIN_PASSES)
               or time.perf_counter() - start < seconds):
            a = bench.mark()
            setup_times.append(bench.set_up("setup %d" % len(passes)))
            b = bench.mark()
            passes.append(bench.solve_pass("pass %d" % len(passes)))
            setup_ranges.append((a, b))
            pass_ranges.append((b, bench.mark()))
        once, once_range = None, None
        if workload.once:
            a = bench.mark()
            once = bench.solve_pass("once", solvers=workload.once)
            once_range = (a, bench.mark())
        heap = bench.solve_pass("heap", heap=True)

    solve_s = {s: solve_seconds(passes, s, bench.cells) for s in workload.solvers}
    for s in workload.once:
        solve_s[s] = solve_seconds([once], s, bench.cells)
    print("set-up: %d builds, median %.6f s; reference sweeps %s; timed passes: %d of "
          "%d solves" % (len(setup_times), statistics.median(setup_times),
                         " ".join(str(bench.references[c].sweeps) for c in bench.cells),
                         len(passes), len(bench.cells) * len(workload.solvers)))
    for s in workload.solvers:
        print("  %-16s solve_s %.6f s (cell medians over %d passes)  peak %.3f MB"
              % (s, solve_s[s], len(passes), heap[s]["peak"]))
    if trace:
        metrics = layer_metrics(passes, pass_ranges, setup_ranges, once, once_range,
                                recorder)
        metrics["dense_sda.solve_s"] = solve_s.get("dense-sda", 0.0)
        reports = [passes[-1][s]["reports"] for s in ("sda-ls", "modified-sda-ls")]
        for cell, a, b in zip(bench.cells, *reports):
            flops = [a.flops.total(), b.flops.total()]
            print("  flops n=%d c=%g alpha=%g: modified-sda-ls / sda-ls = %.4g / %.4g"
                  " = %.3f" % (cell + (flops[1], flops[0], flops[1] / flops[0])))
        units = {m: unit_of(m) for m in PER_LAYER}
        out_dir = Path(out_dir or HERE / "out")
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / ("spans_%s_seed%d.json" % (workload.name, seed))
        recorder.write(path, {
            "workload": workload.name, "seed": seed, "blas_threads": threads,
            "setup_s": setup_times, "traced_solve_s": solve_s,
            "per_layer": metrics})
        print("spans -> %s" % path)
    else:
        metrics = {"setup_s": statistics.median(setup_times)}
        for s in ("sda-ls", "modified-sda-ls"):
            metrics["solve_s." + s] = solve_s[s]
            metrics["peak_mb." + s] = heap[s]["peak"]
        if "dense-sda" in solve_s:
            print("  dense-sda solve_s %.6f s (not an end-to-end metric)"
                  % solve_s["dense-sda"])
        units = dict(END_TO_END)
    for metric, value in metrics.items():
        print("%-42s %.9g %s" % (metric, value, units[metric]))

    seen = {}
    for tag, reason in bench.failures:
        seen[(tag, reason)] = seen.get((tag, reason), 0) + 1
    for (tag, reason), count in sorted(seen.items()):
        print("FAILED x%d: %s: %s" % (count, tag, reason))
    for tag, name, value, bound in bench.bad_checks[:10]:
        print("WRONG: %s: %s = %.3e > %.3e" % (tag, name, value, bound))
    result = {
        "correct": not bench.bad_checks,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {m: {"value": float(v), "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
