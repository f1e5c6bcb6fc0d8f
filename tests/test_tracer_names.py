"""The benchmark's tracer wraps decagon functions by module and name, so a
renamed or deleted function would silently drop out of a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _traced_names():
    """(metric, module, function) for every span and counter of the tracer."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS + module.COUNTERS


_TRACED = _traced_names()


@pytest.mark.parametrize("metric,modname,fname", _TRACED, ids=[m for m, _, _ in _TRACED])
def test_every_traced_name_resolves_in_decagon(metric, modname, fname):
    assert modname.split(".")[0] == "decagon"
    assert callable(getattr(importlib.import_module(modname), fname, None)), metric
