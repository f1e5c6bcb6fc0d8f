from itertools import product

import pytest

from decagon import cli, search
from decagon.distlaw import (
    DistLaw,
    DistLawAlgebra,
    check_algebra,
    check_beck,
    check_decagon,
    exception_over_powerset,
    writer_over_powerset,
)
from decagon.elements import Atom, FinFn, Pair, atoms, iter_functions, subset
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
from decagon.pasting import evaluate
from decagon.transforms import check_naturality, formula, tabulated


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


def reference_systems(spec):
    """Each axiom system of the form, by name, as a whole run of its public
    checker: a reference that reads neither the search's cell tables nor
    its first-witness filter."""
    def law(check, kind):
        return lambda c: check(kind("candidate", spec.T, spec.P, c), spec.universe)

    beck, decagon = law(check_beck, DistLaw), law(check_decagon, DistLaw)
    return {"monoidal": {"beck": beck}, "decagon": {"decagon": decagon},
            "algebra": {"algebra": law(check_algebra, DistLawAlgebra)},
            "all": {"beck": beck, "decagon": decagon}}[spec.form]


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
    survivors = {name: [c for c in expected if check(c).no_counterexample]
                 for name, check in reference_systems(spec).items()}
    assert res.per_axiom == {name: len(good) for name, good in survivors.items()}
    first = next(iter(survivors.values()))
    assert tables(res.survivors, spec.universe) == tables(first, spec.universe)


@pytest.mark.parametrize("argv,evaluations", [
    (("--monad", "maybe", "--monad", "exception", "--max-size", "2"), 17),
    (("--monad", "exception", "--monad", "identity", "--max-size", "3"), 6),
    (("--law", "writer-over-powerset", "--max-size", "2"), 23),
    (("--law", "exception-over-powerset", "--max-size", "3"), 21),
])
def test_search_evaluates_each_candidates_cells_up_to_its_first_witness(
        argv, evaluations, monkeypatch, capsys):
    # one interpretation per candidate, read by every system, and no cell
    # after a witness: two whole checker runs per candidate, each under its
    # own interpretation, make 84, 14, 112 and 112 evaluations
    evaluated = []
    run_cell = evaluate._evaluate
    monkeypatch.setattr(evaluate, "_evaluate",
                        lambda cell, *rest: evaluated.append(cell) or run_cell(cell, *rest))
    assert cli.run(["search", *argv]) == 0
    assert len(evaluated) == evaluations


def _logs_large_sets_as_unit(e):
    """Writer over powerset: the strength, except that a nonunit log over
    two or more members becomes the unit log.  The unit triangles see only
    the unit log or singletons, and the m-pentagon holds, so the first
    witness of each system sits in its last cell."""
    log, members = e.fst, e.snd.members
    if log.label != "1" and len(members) >= 2:
        log = Atom("1")
    return subset([Pair(log, x) for x in members])


def test_a_candidate_refuted_only_by_its_last_cell_does_not_survive(monkeypatch):
    law = writer_over_powerset()
    universe = TestUniverse.sizes(1)
    late = formula(law.lam.src, law.lam.tgt, _logs_large_sets_as_unit, "late")
    for check, last in ((check_beck, "mu-pentagon"), (check_decagon, "decagon")):
        *before, final = check(DistLaw("late", law.T, law.P, late), universe).verdicts
        assert all(v.witness is None for v in before)
        assert final.axiom == last and final.witness is not None
    monkeypatch.setattr(search, "_natural_candidates", lambda spec: [late, law.lam])
    res = enumerate_candidates(SearchSpec(law.T, law.P, form="all", universe=universe))
    assert res.per_axiom == {"beck": 1, "decagon": 1} and res.forms_agree
    assert len(res.survivors) == 1 and res.survivors[0] is law.lam
    for form, last in (("monoidal", "mu-pentagon"), ("decagon", "decagon")):
        report = refute(late, SearchSpec(law.T, law.P, form=form, universe=universe))
        assert report.verdicts[-1].axiom == last and not report.no_counterexample


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
    assert [v.as_dict() for v in report.verdicts] == [
        {"axiom": a, "passed": True, "checked": 2, "skipped": 0} for a in
        ("unit-u-triangle", "unit-eta-triangle", "m-pentagon")] + [
        {"axiom": "mu-pentagon", "passed": True, "checked": 2, "skipped": 0,
         "reduction": "join-generators"}]


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
    assert [v.as_dict() for v in report.verdicts] == [
        {"axiom": "unit-u-triangle", "passed": False, "checked": 2, "skipped": 0,
         "witness": {"at": "|X|=1", "element": "{a}", "lhs": "{}", "rhs": "{inl(a)}"}}]


def test_refute_identity_candidate_identity_monads():
    T = identity_monad()
    universe = TestUniverse.sizes(1)
    spec = SearchSpec(T, identity_monad(), form="monoidal", universe=universe)
    from decagon.functors import Id

    tables = {X: FinFn(X, X, lambda e: e) for X in universe.objects}
    report = refute(tabulated(Id(), Id(), tables, name="id"), spec)
    assert report.no_counterexample
    assert [v.as_dict() for v in report.verdicts] == [
        {"axiom": a, "passed": True, "checked": 2, "skipped": 0} for a in
        ("unit-u-triangle", "unit-eta-triangle", "m-pentagon", "mu-pentagon")]


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
