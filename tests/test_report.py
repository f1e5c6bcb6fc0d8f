"""The compare kernel leaves the collector as it found it; an arrow that
ranges over its generator-valued maps gives the verdict of its whole
hom-set."""

import gc

import pytest

from decagon.elements import Atom, Subset, atoms
from decagon.functors import Power, apply_obj
from decagon.report import HOM_CAP, Refused, TestUniverse, compare, instances, quantify

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


B = Atom("b")


def _into_powersets(universe, sides, generator_valued):
    """The verdict of ``sides`` over every f: X -> P(Y)."""
    def stream():
        for (X, Y), fs in quantify(universe, "XY", lambda X, Y: [(X, apply_obj(Power(), Y))],
                                   generator_valued):
            yield from instances(f"f:{len(X)}->{len(Y)}", fs, sides)

    return compare("axiom", stream())


def _without_b(f):
    """f beside f with b taken out of every value: both sides preserve
    unions in each value of f."""
    return dict(f.pairs), {x: Subset(m for m in S._members if m is not B) for x, S in f.pairs}


def test_a_generator_valued_arrow_counts_the_instances_it_covers():
    # at |X| = |Y| = 4 the hom-set has 16^4 functions, over HOM_CAP, but
    # only 5^4 generator-valued ones
    U = TestUniverse.sizes(4)
    assert 16 ** 4 > HOM_CAP >= 5 ** 4
    evaluated = []

    def sides(f):
        evaluated.append(f)
        return f, f

    got = _into_powersets(U, sides, (0,))
    covered = sum(2 ** (x * y) for x in range(5) for y in range(5))
    assert (got.passed, got.checked, got.skipped) == (True, covered, 0)
    assert len(evaluated) == sum((y + 1) ** x for x in range(5) for y in range(5))
    full = _into_powersets(U, lambda f: (f, f), ())
    assert (full.passed, full.checked, full.skipped) == (True, covered - 16 ** 4, 1)


def test_a_failing_generator_valued_arrow_gives_the_full_witness():
    U = TestUniverse.sizes(2)
    got, want = (_into_powersets(U, _without_b, reduce) for reduce in ((0,), ()))
    assert not want.passed
    assert (got.passed, got.checked, got.skipped, got.witness) == \
        (want.passed, want.checked, want.skipped, want.witness)
    # where the whole hom-set is over HOM_CAP the witness is a generator's
    got = _into_powersets(TestUniverse([atoms("a", "b", "c", "d")]), _without_b, (0,))
    assert (got.passed, got.checked, got.skipped) == (False, 16 ** 4, 0)
    assert (got.witness.at, got.witness.lhs, got.witness.rhs) == ("f:4->4", "{b}", "{}")


def test_a_refused_generator_instance_reruns_its_assignment_in_full():
    def refusing(f):
        if any(B in S._members for S in f._map.values()):
            raise Refused("b")
        return f, f

    U = TestUniverse.sizes(2)
    got, want = (_into_powersets(U, refusing, reduce) for reduce in ((0,), ()))
    assert want.skipped > 0
    assert (got.passed, got.checked, got.skipped) == (want.passed, want.checked, want.skipped)
