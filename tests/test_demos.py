"""Smoke test: the quick demos run end to end against the current API."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


# large_scale.py is left out: it solves to convergence at n = 4096 (~18 s)
@pytest.mark.parametrize("name", ["scalar_anchor.py", "dense_cross_check.py",
                                  "flop_comparison.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
