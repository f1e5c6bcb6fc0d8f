from itertools import product

import pytest

from decagon import search
from decagon.distlaw import exception_over_powerset
from decagon.elements import FinFn, atoms, iter_functions
from decagon.functors import apply_obj, compose_functors
from decagon.monads import (
    TestUniverse,
    builtin_monads,
    exception_monad,
    identity_monad,
    powerset_monad,
)
from decagon.search import (
    BudgetExceeded,
    SearchSpec,
    candidate_matches,
    enumerate_candidates,
    raw_count,
    refute,
)
from decagon.transforms import check_naturality, tabulated


def reference_natural(spec):
    """Every combination of the raw product, in order, filtered by a whole
    naturality check per candidate."""
    src, tgt = search._src_tgt(spec)
    objects = spec.universe.objects
    pools = [list(iter_functions(apply_obj(src, X), apply_obj(tgt, X))) for X in objects]
    morphisms = list(spec.universe.all_morphisms())
    candidates = (tabulated(src, tgt, dict(zip(objects, combo)), name="candidate")
                  for combo in product(*pools))
    return [c for c in candidates if check_naturality(c, morphisms) is None]


def tables(candidates, universe):
    return [[c.component(X).pairs for X in universe.objects] for c in candidates]


@pytest.mark.parametrize("outer,inner,max_size,form", [
    ("maybe", "exception", 2, "all"),
    ("exception", "identity", 3, "all"),
    ("exception", "powerset", 1, "all"),
    ("writer", "powerset", 1, "all"),
    ("reader", "maybe", 1, "all"),
    ("powerset", "powerset", 1, "all"),
    ("exception", "identity", 2, "algebra"),
    ("exception", "powerset", 1, "algebra"),
    ("powerset", "identity", 2, "all"),
    ("identity", "powerset", 2, "algebra"),
])
def test_generic_search_matches_per_candidate_reference(outer, inner, max_size, form):
    monads = builtin_monads()
    spec = SearchSpec(monads[outer], monads[inner], form=form,
                      universe=TestUniverse.sizes(max_size))
    expected = reference_natural(spec)
    assert tables(search._natural_candidates(spec), spec.universe) == \
        tables(expected, spec.universe)
    res = enumerate_candidates(spec)
    assert res.natural == len(expected)
    survivors = {}
    for name, check in search._axiom_systems(spec):
        survivors[name] = [c for c in expected if check(c).no_counterexample]
    assert res.per_axiom == {name: len(good) for name, good in survivors.items()}
    first = next(iter(survivors.values()))
    assert tables(res.survivors, spec.universe) == tables(first, spec.universe)


def test_exception_over_identity_unique_survivor():
    spec = SearchSpec(exception_monad(["e"]), identity_monad(),
                      form="all", universe=TestUniverse.sizes(2))
    res = enumerate_candidates(spec)
    assert res.raw == 108
    assert len(res.survivors) == 1
    assert res.forms_agree
    # the unique survivor is the identity family
    survivor = res.survivors[0]
    for X in spec.universe.objects:
        TX = apply_obj(spec.T.functor, X)
        assert survivor.component(X) == FinFn(TX, TX, lambda e: e)


def test_identity_over_identity_unique_survivor():
    spec = SearchSpec(identity_monad(), identity_monad(),
                      form="all", universe=TestUniverse.sizes(2))
    res = enumerate_candidates(spec)
    assert len(res.survivors) == 1 and res.forms_agree


def test_registered_law_among_survivors_at_size_one():
    spec = SearchSpec(exception_monad(["e"]), powerset_monad(),
                      form="all", universe=TestUniverse.sizes(1))
    res = enumerate_candidates(spec)
    law = exception_over_powerset()
    assert any(candidate_matches(c, law.lam, spec.universe) for c in res.survivors)
    assert res.forms_agree


def test_stage_counts_monotone():
    spec = SearchSpec(exception_monad(["e"]), powerset_monad(),
                      form="all", universe=TestUniverse.sizes(1))
    res = enumerate_candidates(spec)
    assert res.raw >= res.natural
    assert all(res.natural >= n for n in res.per_axiom.values())


def test_survivors_convert_to_passing_algebra_form():
    from decagon.distlaw import DistLaw, check_algebra, monoidal_to_algebra

    spec = SearchSpec(exception_monad(["e"]), powerset_monad(),
                      form="all", universe=TestUniverse.sizes(1))
    res = enumerate_candidates(spec)
    for survivor in res.survivors:
        D = monoidal_to_algebra(DistLaw("survivor", spec.T, spec.P, survivor))
        assert check_algebra(D, spec.universe).no_counterexample


def test_budget_refusal_reports_count():
    spec = SearchSpec(exception_monad(["e"]), powerset_monad(),
                      form="all", universe=TestUniverse.sizes(2), budget=10)
    with pytest.raises(BudgetExceeded) as err:
        enumerate_candidates(spec)
    assert str(raw_count(spec)) in str(err.value)


@pytest.mark.parametrize("sizes", [(0, 2), (0, 1, 1), (0, 1, 2, 3, 4)])
def test_search_universe_holds_one_object_of_each_size(sizes):
    # across a gap in the sizes an element of smaller support counts as
    # generic, and its value carried along two injections that agree on
    # that support need not agree
    universe = TestUniverse([atoms(*"abcd"[:n]) for n in sizes])
    with pytest.raises(ValueError, match="one object of each size"):
        SearchSpec(exception_monad(["e"]), powerset_monad(), universe=universe)


def test_refute_registered_law_full_pass():
    law = exception_over_powerset()
    spec = SearchSpec(law.T, law.P, form="monoidal", universe=TestUniverse.sizes(1))
    report = refute(law.lam, spec)
    assert report.no_counterexample


def test_refute_constant_empty_candidate():
    from decagon.elements import Subset

    law = exception_over_powerset()
    universe = TestUniverse.sizes(1)
    spec = SearchSpec(law.T, law.P, form="monoidal", universe=universe)
    src = compose_functors(law.T.functor, law.P.functor)
    tgt = compose_functors(law.P.functor, law.T.functor)
    tables = {
        X: FinFn(apply_obj(src, X), apply_obj(tgt, X), lambda _: Subset(()))
        for X in universe.objects
    }
    report = refute(tabulated(src, tgt, tables, name="empty"), spec)
    assert not report.no_counterexample
    first_failing = next(v for v in report.verdicts if not v.passed)
    assert first_failing.witness is not None
    # smallest failing object is the smallest nonempty carrier
    assert "1" in first_failing.witness.at


def test_refute_identity_candidate_identity_monads():
    T = identity_monad()
    universe = TestUniverse.sizes(1)
    spec = SearchSpec(T, identity_monad(), form="monoidal", universe=universe)
    from decagon.functors import Id

    tables = {X: FinFn(X, X, lambda e: e) for X in universe.objects}
    report = refute(tabulated(Id(), Id(), tables, name="id"), spec)
    assert report.no_counterexample


def test_refute_rejects_wrong_boundaries():
    law = exception_over_powerset()
    spec = SearchSpec(law.T, law.P, form="monoidal", universe=TestUniverse.sizes(1))
    from decagon.functors import Id

    X = atoms("a")
    with pytest.raises(ValueError):
        refute(tabulated(Id(), Id(), {X: FinFn(X, X, lambda e: e)}), spec)


def test_search_determinism():
    spec = SearchSpec(exception_monad(["e"]), powerset_monad(),
                      form="all", universe=TestUniverse.sizes(1))
    r1 = enumerate_candidates(spec)
    r2 = enumerate_candidates(spec)
    assert r1.raw == r2.raw and r1.natural == r2.natural
    t1 = [[c.component(X).pairs for X in spec.universe.objects] for c in r1.survivors]
    t2 = [[c.component(X).pairs for X in spec.universe.objects] for c in r2.survivors]
    assert t1 == t2
