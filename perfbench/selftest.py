"""Tests of the benchmark itself: its checks reject wrong answers, and a smoke
run of one small cell per workload passes.

    python3 perfbench/selftest.py           # a few seconds
    python3 perfbench/selftest.py --checks  # the rejection tests alone, ~1 s

Exits 0 when every test passes.
"""

import sys
import tempfile

import run  # first: it sets the BLAS thread count before numpy loads

import numpy as np

import reference as ref

PKG = run.import_package()


def _failed(checks):
    return {name for name, _, _ in ref.failed_checks(checks)}


def _factored(X):
    """X as a left/core/right triple, the form the low-rank solvers return."""
    U, s, Vt = np.linalg.svd(X)
    return PKG.LowRankBilinear(U, s, Vt.T)


def test_checks_reject_wrong_answers():
    inst = PKG.make_instance(32, 0.9, 0.1)
    r = ref.solve_reference(inst.delta, inst.d, inst.q)
    X = r.rows(np.arange(inst.n))
    rows = np.arange(0, inst.n, 3)

    for answer in (X, _factored(X)):
        assert not _failed(ref.check_converged(r, inst.q, answer, 1e-11, 1e-11))
    assert _failed(ref.check_converged(r, inst.q, X * (1 + 1e-6), 1e-11, 1e-11)) \
        == {"residual", "distance"}
    assert _failed(ref.check_converged(r, inst.q, X * (1 + 1e-6), 1e-8, 1e-8)) \
        == {"residual", "distance"}

    below = 0.5 * X
    assert not _failed(ref.check_iterate(r, _factored(below), rows))
    negative = below.copy()
    negative[rows[2], 7] = -1e-6 * X[rows[2], 7]
    assert _failed(ref.check_iterate(r, negative, rows)) == {"neg_min_entry"}
    above = below.copy()
    above[rows[4], 11] = X[rows[4], 11] * (1 + 1e-6)
    assert _failed(ref.check_iterate(r, above, rows)) == {"max_above_reference"}

    # 0.5 X lies between 0 and X but holds half the mass an iterate at this
    # floor must hold; a share above the floor passes.
    for answer in (X, _factored(X)):
        assert not _failed(ref.check_progress(r, answer, 0.9, run.PROGRESS_BOUND))
    assert _failed(ref.check_progress(r, _factored(below), 0.9, run.PROGRESS_BOUND)) \
        == {"progress_shortfall"}
    assert _failed(ref.check_progress(r, X * (1 - 1e-9), 1.0, run.PROGRESS_BOUND)) \
        == {"progress_shortfall"}

    assert not _failed(ref.check_agreement(below, _factored(below), rows, 1e-10))
    assert _failed(ref.check_agreement(below, below * (1 + 1e-6), rows, 1e-10))
    assert _failed(ref.check_reported(1.0 + 1e-6, 1.0, 1e-10))


def test_smoke():
    with tempfile.TemporaryDirectory() as out:
        for name, workload in run.WORKLOADS.items():
            for trace in (0, 1):
                res = run.run(workload, seed=0, seconds=0, trace=trace, smoke=True,
                              out_dir=out)
                assert res["correct"] and res["failed"] == 0, (name, trace, res)
                assert res["attempted"] == (2 * len(workload.solvers)
                                            + len(workload.once)), (name, res)


if __name__ == "__main__":
    test_checks_reject_wrong_answers()
    print("checks reject wrong answers: ok")
    if "--checks" not in sys.argv:
        test_smoke()
        print("smoke: ok")
