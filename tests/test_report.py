"""The compare kernel pauses automatic cyclic collection for one verdict and
leaves the collector as it found it."""

import gc

import pytest

from decagon.elements import Atom
from decagon.report import compare, instances

A = Atom("a")


@pytest.fixture(autouse=True)
def _restore_collector():
    collecting = gc.isenabled()
    yield
    (gc.enable if collecting else gc.disable)()


def _agreeing():
    yield "|X|=1", ({A: A}, {A: A})


@pytest.mark.parametrize("collecting", [True, False])
def test_compare_leaves_the_collector_as_it_found_it(collecting):
    (gc.enable if collecting else gc.disable)()
    assert compare("axiom", _agreeing()).passed
    assert gc.isenabled() is collecting


@pytest.mark.parametrize("collecting", [True, False])
def test_compare_leaves_the_collector_as_it_found_it_when_an_instance_raises(collecting):
    def raising():
        yield from _agreeing()
        raise RuntimeError("instance failed")

    (gc.enable if collecting else gc.disable)()
    with pytest.raises(RuntimeError, match="instance failed"):
        compare("axiom", raising())
    assert gc.isenabled() is collecting


def test_nested_compare_keeps_collection_off_until_the_outer_one_returns():
    gc.enable()
    seen = []

    def outer():
        seen.append(gc.isenabled())
        assert compare("inner", _agreeing()).passed
        seen.append(gc.isenabled())
        yield from _agreeing()

    assert compare("outer", outer()).passed
    assert seen == [False, False]
    assert gc.isenabled()


def test_sides_run_with_collection_paused():
    gc.enable()
    seen = []

    def sides(x):
        seen.append(gc.isenabled())
        return {x: x}, {x: x}

    assert compare("axiom", instances("|X|=1", [(A,), (A,)], sides)).checked == 2
    assert seen == [False, False]


def test_no_collection_runs_inside_compare():
    # enough container allocations to trigger many young collections were
    # automatic collection on
    gc.enable()
    events = []

    def record(phase, info):
        events.append((phase, info["generation"]))

    def allocating():
        for i in range(20):
            junk = [[] for _ in range(2_000)]
            yield f"|X|={i}", ({A: A}, {A: A})
            del junk

    gc.callbacks.append(record)
    try:
        assert compare("axiom", allocating()).checked == 20
    finally:
        gc.callbacks.remove(record)
    assert events == []
