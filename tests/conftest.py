"""Test-session set-up: one BLAS thread, as the CLI runs, pinned before numpy loads.

A value set in the environment still wins.  numpy reads these variables once,
as it loads, so this file refuses to run after anything has imported it.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was loaded before tests/conftest.py could pin one BLAS thread")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
