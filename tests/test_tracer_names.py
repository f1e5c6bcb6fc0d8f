"""The benchmark reaches into decagon by module and name: its tracer wraps
functions, so a renamed or deleted function would silently drop out of a
traced run, and every run reads the sizes of two intern tables, so a
reshaped table would fail every run."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


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


def test_the_tables_the_benchmark_sizes_resolve_and_have_a_length():
    # bench/child.py records len(elements._KEY_CACHE) and len(functors._OBJ_CACHE)
    reached = set(re.findall(r"\b(elements|functors)\.(_[A-Z_]+)\b", (BENCH / "child.py").read_text()))
    assert reached == {("elements", "_KEY_CACHE"), ("functors", "_OBJ_CACHE")}
    for modname, name in reached:
        assert len(getattr(importlib.import_module(f"decagon.{modname}"), name)) >= 0
