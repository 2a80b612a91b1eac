"""The benchmark's own self-test passes against the current package.

perfbench reads solver attributes, report keys and traced span names of the
package; running its self-test here makes a rename that breaks the benchmark
fail the suite rather than the next benchmark run.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_perfbench_selftest():
    proc = subprocess.run([sys.executable, "-B", str(SELFTEST)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
