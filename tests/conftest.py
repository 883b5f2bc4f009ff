"""Test-session set-up: one BLAS thread, as the CLI runs, pinned before numpy loads.

A value set in the environment still wins.  numpy reads these variables once,
as it loads, so this file refuses to run after anything has imported it.

It also names, once, every family the code accepts (`EVERY_SPEC`), read from
the sources' own limits, so a test parametrized over it follows them, and the
subset the engine cross-checks read (`ENGINE_SPECS`).
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was loaded before tests/conftest.py could pin one BLAS thread")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from waverate.filters import MAX_DAUBECHIES  # noqa: E402
from waverate.splines import MAX_ORDER  # noqa: E402

#: the Battle-Lemarie orders built as spline series (order 1 is the box)
SERIES_ORDERS = range(2, MAX_ORDER + 1)
#: the series orders of the engine cross-checks, each a fast read against its
#: own oracle: the orders between 4 and MAX_ORDER are left out for tier-1's
#: time, bracketed by 4 and by MAX_ORDER, whose support is the widest and
#: whose tails decay the slowest
ENGINE_ORDERS = (2, 3, 4, MAX_ORDER)


def _specs(orders):
    return [("haar", None), *(("daubechies", n) for n in range(1, MAX_DAUBECHIES + 1)),
            *(("battle_lemarie", k) for k in orders), ("shannon", None)]


#: every family the code accepts, as make_family's (name, param), shannon last
EVERY_SPEC = _specs(range(1, MAX_ORDER + 1))
#: EVERY_SPEC with the series orders of ENGINE_ORDERS alone
ENGINE_SPECS = _specs((1, *ENGINE_ORDERS))
