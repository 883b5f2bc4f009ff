"""The benchmark's traced names must exist in waverate.

``benchmarks/tracing.py`` wraps each ``(module, attribute)`` of its
``_TARGETS`` by name when a run is traced; a name that no longer resolves
would break every ``--trace 1`` run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, *_ in tracing._TARGETS]


@pytest.mark.parametrize("module,attr", _targets())
def test_traced_name_resolves(module, attr):
    home = importlib.import_module(f"waverate.{module}")
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        # the tracer replaces the method in the class's own namespace
        assert callable(getattr(home, owner_name).__dict__[name])
    else:
        assert callable(getattr(home, name))
