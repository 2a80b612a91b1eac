"""The benchmark's own self-test passes against the current package.

perfbench reads solver attributes, report keys and traced span names of the
package; running its self-test here makes a rename that breaks the benchmark
fail the suite rather than the next benchmark run.  Its span tracer patches
kernel names in the solver modules, so a kernel call moved into a module it
does not patch would make the per-layer metrics read 0; the attribution test
below fails the suite instead.
"""

import importlib.util
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from transport_nare.modified_sda_ls import msda_solve
from transport_nare.sda_ls import SolverConfig, sda_ls_solve
from transport_nare.transport_problem import make_instance

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SELFTEST = PERFBENCH / "selftest.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_selftest():
    proc = subprocess.run([sys.executable, "-B", str(SELFTEST)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("solve,step,orth,svd,applies,pushes", [
    (sda_ls_solve, "sda_ls.step", 4, 2, 4, 2),
    (msda_solve, "modified_sda_ls.step", 2, 1, 2, 0),
], ids=["sda-ls", "modified-sda-ls"])
def test_step_kernel_spans_attributed(solve, step, orth, svd, applies, pushes):
    spans = load_spans()
    rec = spans.Recorder()
    with spans.instrument(rec):
        _, rep = solve(make_instance(64, 0.9, 0.1), SolverConfig(max_iter=4))
    assert rep.iterations == 4
    steps = [i for i, span in enumerate(rec.spans) if span[0] == step]
    assert len(steps) == 4
    for i in steps:
        kids = Counter(span[0] for span in rec.spans if span[3] == i)
        assert kids["structured_linalg.orthonormalize"] == orth, kids
        assert kids["structured_linalg.truncated_svd"] == svd, kids
        assert kids["structured_linalg.implicit_apply"] == applies, kids
        assert kids["structured_linalg.push_update"] == pushes, kids
