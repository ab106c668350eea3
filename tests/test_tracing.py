"""The benchmark's traced run patches hypzero functions by name; each of
those names must exist, or the traced run fails where tier-1 passed."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in tracing.WRAP_POINTS])
def test_wrap_point_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
