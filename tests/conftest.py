"""Test-session set-up.

OpenBLAS defaults to one thread per core, and on small machines the extra
threads spin instead of helping: the suite runs about twice as slow and its
timing-based checks twice as noisy.  Pin one thread, as the benchmark does,
unless the caller already chose.  pytest loads this file before any test
module imports numpy, which is when OpenBLAS reads the variable.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
