from functools import cache

import pytest

from decagon.distlaw import (
    DistLaw,
    DistLawAlgebra,
    MixedLaw,
    algebra_to_monoidal,
    algebra_to_noiter,
    builtin_laws,
    check_algebra,
    check_beck,
    check_decagon,
    check_five_axiom,
    check_mixed_classic,
    check_mixed_decagon,
    check_noiter,
    compose_monads,
    coreader_over_powerset,
    exception_over_powerset,
    law_from_config,
    monoidal_to_algebra,
    noiter_to_algebra,
    writer_over_powerset,
)
from decagon.elements import (
    Atom,
    FinFn,
    Inl,
    Inr,
    Pair,
    Subset,
    all_functions,
    atoms,
    compose,
    identity,
    subset,
)
from decagon.functors import apply_obj, compose_functors
from decagon.monads import (
    BASE_CATEGORY,
    MonadExtensive,
    TestUniverse,
    builtin_monads,
    check_category,
    check_monad_extensive,
    check_monad_monoidal,
    generator_valued_arrows,
    identity_monad,
    kleisli,
    monoidal_to_extensive,
    powerset_monad,
)
from decagon.transforms import formula

U2 = TestUniverse.sizes(2)
U1 = TestUniverse.sizes(1)


def identity_law():
    T = identity_monad()
    P = identity_monad()
    lam = formula(compose_functors(T.functor, P.functor),
                  compose_functors(P.functor, T.functor), lambda e: e, "id")
    return DistLaw("identity-over-identity", T, P, lam)


def broken_exception_law():
    """exception-dist with lambda(inr e) redefined to the empty set."""
    good = exception_over_powerset()

    def lam_fn(e):
        if type(e) is Inl:
            return subset(Inl(x) for x in e.value.members)
        return Subset(())

    lam = formula(good.lam.src, good.lam.tgt, lam_fn, "broken")
    return DistLaw("broken", good.T, good.P, lam)


# --- checkers on the lambda forms ------------------------------------------


def test_exception_over_powerset_passes_beck():
    report = check_beck(exception_over_powerset(), U2)
    assert report.ok, report.summary()


def test_exception_over_powerset_passes_decagon():
    report = check_decagon(exception_over_powerset(), U2)
    assert report.ok, report.summary()


def test_writer_over_powerset_passes_beck_and_decagon():
    law = writer_over_powerset()
    assert check_beck(law, U2).ok
    assert check_decagon(law, U2).ok


def test_identity_law_trivially_passes():
    law = identity_law()
    assert check_beck(law, U2).ok
    assert check_decagon(law, U2).ok


def test_broken_lambda_fails_a_unit_triangle():
    # lambda(inr e) = {} breaks the eta-unit triangle: T(eta) leaves inr e
    # fixed and eta T sends it to {inr e}, while the broken lambda gives {}.
    report = check_beck(broken_exception_law(), U2)
    assert not report.verdict("unit-eta-triangle").passed
    assert report.verdict("unit-eta-triangle").witness is not None


def test_broken_lambda_fails_decagon():
    # the empty-set mutation is absorbing and only the triangle catches it
    report = check_decagon(broken_exception_law(), U2)
    assert not report.ok

    # a size-sensitive mutation breaks the ten-sided condition itself
    good = exception_over_powerset()

    def lam_fn(e):
        if type(e) is Inl:
            img = [Inl(x) for x in e.value.members]
            if len(img) == 1:
                img.append(Inr(Atom("e")))
            return subset(img)
        return Subset((e,))

    bad = DistLaw("bad", good.T, good.P,
                  formula(good.lam.src, good.lam.tgt, lam_fn, "bad"))
    report = check_decagon(bad, U2)
    assert not report.verdict("decagon").passed
    assert report.verdict("decagon").witness is not None


def test_beck_and_decagon_agree_on_registered_laws():
    for law in [exception_over_powerset(), writer_over_powerset(), identity_law(),
                broken_exception_law()]:
        assert check_beck(law, U2).ok == check_decagon(law, U2).ok


# --- algebra form ------------------------------------------------------------


def test_algebra_form_of_exception_law_passes():
    D = monoidal_to_algebra(exception_over_powerset())
    report = check_algebra(D, U2)
    assert report.ok, report.summary()


def test_algebra_form_with_identity_p_is_multiplication():
    T = builtin_monads()["exception"]
    P = identity_monad()
    lam = formula(T.functor, T.functor, lambda e: e, "id")
    D = monoidal_to_algebra(DistLaw("exc-over-id", T, P, lam))
    for X in U2.objects:
        assert D.alpha.component(X) == T.mult.component(X)
    assert check_algebra(D, U2).ok


def test_alpha_mutation_fails_eta_square():
    good = monoidal_to_algebra(exception_over_powerset())

    def bad_alpha(e):
        return Subset(())  # constant empty set

    bad = DistLawAlgebra(
        "bad", good.T, good.P,
        formula(good.alpha.src, good.alpha.tgt, bad_alpha, "bad"),
    )
    report = check_algebra(bad, U2)
    assert not report.verdict("eta-square").passed


def test_exception_alpha_table_matches_direct_formula():
    # alpha = Pm . lambda T evaluated tablewise: on inl S the result is the
    # direct image of S under m restricted to inl, computed independently.
    D = monoidal_to_algebra(exception_over_powerset())
    T = D.T.functor
    for X in U2.objects:
        alpha = D.alpha.component(X)
        for e in alpha.dom.elements:
            if type(e) is Inl:
                expected = subset(
                    (w.value if type(w) is Inl else w) for w in
                    (Inl(v) for v in e.value.members)
                )
                expected = subset(v for v in e.value.members)
                assert alpha(e) == expected
            else:
                assert alpha(e) == Subset((e,))


def test_round_trip_monoidal_algebra_monoidal():
    for law in [exception_over_powerset(), writer_over_powerset(), identity_law()]:
        D = monoidal_to_algebra(law)
        back = algebra_to_monoidal(D, U2)
        for X in U2.objects:
            assert back.lam.component(X) == law.lam.component(X)


def test_five_axiom_on_registered_laws():
    for law in [exception_over_powerset(), writer_over_powerset()]:
        D = monoidal_to_algebra(law)
        report = check_five_axiom(D.alpha, D.T, D.P, U2, name=law.name)
        assert report.ok, report.summary()


def test_five_axiom_with_identity_p():
    T = builtin_monads()["exception"]
    P = identity_monad()
    report = check_five_axiom(T.mult, T, P, U2, name="m-as-alpha")
    assert report.ok, report.summary()


def test_five_axiom_catches_size_sensitive_alpha():
    # lambda adds inr(e) to the image of singletons only
    good = exception_over_powerset()

    def lam_fn(e):
        if type(e) is Inl:
            img = [Inl(x) for x in e.value.members]
            if len(img) == 1:
                img.append(Inr(Atom("e")))
            return subset(img)
        return Subset((e,))

    bad = DistLaw("size-sensitive", good.T, good.P,
                  formula(good.lam.src, good.lam.tgt, lam_fn, "bad"))
    D = monoidal_to_algebra(bad)
    report = check_five_axiom(D.alpha, D.T, D.P, U2, name=bad.name)
    v = report.verdict("mu-diagram")
    assert not v.passed and v.checked == 3
    w = v.witness
    assert (w.at, w.element, w.lhs, w.rhs) == ("|X|=0", "inl({{}})", "{inr(e)}", "{}")


def test_three_axiom_algebra_implies_five_axiom():
    for law in [exception_over_powerset(), writer_over_powerset(), identity_law()]:
        D = monoidal_to_algebra(law)
        if check_algebra(D, U2).ok:
            assert check_five_axiom(D.alpha, D.T, D.P, U2).ok


# --- no-iteration form -------------------------------------------------------


def test_noiter_form_of_exception_law_passes():
    D = algebra_to_noiter(monoidal_to_algebra(exception_over_powerset()))
    report = check_noiter(D, U2)
    assert report.ok, report.summary()


def test_noiter_identity_monad_trivial():
    law = identity_law()
    D = algebra_to_noiter(monoidal_to_algebra(law))
    report = check_noiter(D, U2)
    assert report.ok, report.summary()


def test_noiter_broken_op_fails_unit():
    from decagon.distlaw import DistLawNoIteration

    good = algebra_to_noiter(monoidal_to_algebra(exception_over_powerset()))

    def bad_op(f):
        out = good.op(f)
        anchor = f(f.dom.elements[0]) if len(f.dom) else None
        if anchor is None:
            return out
        return FinFn(out.dom, out.cod, lambda _: anchor)

    bad = DistLawNoIteration("bad", good.T, good.P, bad_op)
    report = check_noiter(bad, U2)
    assert not report.verdict("op-unit").passed


def test_noiter_skips_operator_refusals():
    # op refuses every morphism out of a two-element set; every other
    # instance is still evaluated
    from decagon.distlaw import DistLawNoIteration
    from decagon.transforms import OversizeCarrier

    good = algebra_to_noiter(monoidal_to_algebra(exception_over_powerset()))

    def op(f):
        if len(f.dom) == 2:
            raise OversizeCarrier("refused")
        return good.op(f)

    report = check_noiter(DistLawNoIteration("refusing", good.T, good.P, op), U2)
    full = check_noiter(good, U2)
    assert all(v.passed and v.skipped > 0 for v in report.verdicts), report.summary()
    assert [v.checked + v.skipped for v in report.verdicts] == [v.checked for v in full.verdicts]
    assert all(v.skipped == 0 for v in full.verdicts)


def test_round_trip_algebra_noiter_algebra():
    for law in [exception_over_powerset(), writer_over_powerset()]:
        D = monoidal_to_algebra(law)
        ni = algebra_to_noiter(D)
        back = noiter_to_algebra(ni, U2, D.P)
        for X in U2.objects:
            assert back.alpha.component(X) == D.alpha.component(X)


def test_op_on_unit_shaped_morphisms():
    # op(eta TX) = eta TX . m X is the second operator equation; and for
    # f = eta TX . u X the eta-square plus the unit law collapse op(f) to
    # eta TX.  Both expected tables computed from the monad data directly.
    D = monoidal_to_algebra(exception_over_powerset())
    ni = algebra_to_noiter(D)
    X = atoms("a")
    TX = apply_obj(D.T.functor, X)
    eta_tx = D.P.unit.component(TX)
    m = D.T.mult.component(X)
    assert ni.op(eta_tx) == compose(eta_tx, m)
    u = D.T.unit.component(X)
    assert ni.op(compose(eta_tx, u)) == eta_tx


# --- composite monad and Kleisli extension ----------------------------------


def test_compose_monads_identity_cases():
    monads = builtin_monads()
    # P = identity: composite is T itself
    T = monads["exception"]
    P = identity_monad()
    lam = formula(T.functor, T.functor, lambda e: e, "id")
    comp = compose_monads(monoidal_to_algebra(DistLaw("l", T, P, lam)))
    for X in U2.objects:
        assert comp.unit.component(X) == T.unit.component(X)
        assert comp.mult.component(X) == T.mult.component(X)
    # T = identity: composite is P itself
    P2 = powerset_monad()
    T2 = identity_monad()
    lam2 = formula(P2.functor, P2.functor, lambda e: e, "id")
    comp2 = compose_monads(monoidal_to_algebra(DistLaw("l2", T2, P2, lam2)))
    for X in U2.objects:
        assert comp2.unit.component(X) == P2.unit.component(X)
        assert comp2.mult.component(X) == P2.mult.component(X)


def test_composite_monad_passes_laws():
    for law in [exception_over_powerset(), writer_over_powerset()]:
        comp = compose_monads(monoidal_to_algebra(law), U2)
        report = check_monad_monoidal(comp, U2)
        assert report.ok, report.summary()
        assert all(v.checked > 0 for v in report.verdicts)


def test_extend_to_kleisli_unit_table():
    D = monoidal_to_algebra(exception_over_powerset())
    ext = extend = __import__("decagon.distlaw", fromlist=["extend_to_kleisli"]).extend_to_kleisli(D)
    X = atoms("a")
    unit = ext.unit_at(X)
    assert unit(Atom("a")) == Subset((Inl(Atom("a")),))


def test_extend_to_kleisli_passes_extensive_laws():
    from decagon.distlaw import extend_to_kleisli

    for law in [exception_over_powerset(), writer_over_powerset()]:
        ext = extend_to_kleisli(monoidal_to_algebra(law))
        report = check_monad_extensive(ext, U2)
        assert report.ok, report.summary()


def test_extend_to_kleisli_identity_p_recovers_t():
    from decagon.distlaw import extend_to_kleisli

    T = builtin_monads()["exception"]
    P = identity_monad()
    lam = formula(T.functor, T.functor, lambda e: e, "id")
    ext = extend_to_kleisli(monoidal_to_algebra(DistLaw("l", T, P, lam)))
    direct = monoidal_to_extensive(T)
    for X in U2.objects:
        assert ext.unit_at(X) == direct.unit_at(X)
        for f in all_functions(X, direct.obj(X))[:6]:
            assert ext.ext(f) == direct.ext(f)


def test_extend_to_kleisli_takes_tabulated_alpha_at_the_target_object():
    from decagon.distlaw import extend_to_kleisli

    law = exception_over_powerset()
    D = monoidal_to_algebra(law)
    by_formula = extend_to_kleisli(D)
    by_table = extend_to_kleisli(noiter_to_algebra(algebra_to_noiter(D), U2, law.P))
    a, b = Atom("a"), Atom("b")
    f = FinFn(atoms("a"), apply_obj(law.lam.tgt, atoms("a", "b")), {a: Subset((Inl(a), Inl(b)))})
    assert by_table.ext(f) == by_formula.ext(f)
    for X in U2.objects:
        for Y in U2.objects:
            for f in U2.hom(X, by_formula.ambient.obj(by_formula.obj(Y))):
                assert by_table.ext(f) == by_formula.ext(f)


@pytest.mark.parametrize("law", [exception_over_powerset(), writer_over_powerset()],
                         ids=lambda law: law.name)
def test_check_noiter_applies_op_once_per_morphism(law):
    from decagon.distlaw import DistLawNoIteration

    good = algebra_to_noiter(monoidal_to_algebra(law))
    calls = []

    def op(f):
        calls.append(f)
        return good.op(f)

    report = check_noiter(DistLawNoIteration(law.name, good.T, good.P, op), U2)
    assert report.ok
    assert calls and len(calls) == len(set(calls))


def test_tabulated_lambda_law_skips_unavailable_components():
    # a search survivor is tabulated on sizes <= 1 only; the converters keep
    # its objects, and an instance needing a component elsewhere is skipped
    from decagon.distlaw import extend_to_kleisli
    from decagon.search import SearchSpec, enumerate_candidates

    T, P = builtin_monads()["exception"], builtin_monads()["powerset"]
    survivor = enumerate_candidates(SearchSpec(T, P, universe=U1)).survivors[0]
    alg = monoidal_to_algebra(DistLaw("survivor", T, P, survivor))
    assert alg.alpha.tabulated_objects == survivor.tabulated_objects
    assert algebra_to_monoidal(alg).lam.tabulated_objects == survivor.tabulated_objects
    by_formula = monoidal_to_algebra(exception_over_powerset())
    for check in (lambda D: check_noiter(algebra_to_noiter(D), U1),
                  lambda D: check_monad_extensive(extend_to_kleisli(D), U1)):
        report, full = check(alg), check(by_formula)
        assert report.ok, report.summary()
        for v, w in zip(report.verdicts, full.verdicts):
            assert v.checked > 0 and v.skipped > 0
            assert v.checked + v.skipped == w.checked


def _dropping_law() -> DistLaw:
    """exception-dist that drops every member inr(e) or inl(b) of the subset
    in inl(S): built by ``per_member``, so still linear by construction."""
    from decagon.distlaw import _exception_dist
    from decagon.transforms import per_member

    good = exception_over_powerset()
    dropped = {Inr(Atom("e")), Inl(Atom("b"))}

    def rule(e):
        if type(e) is Inl and e.value._members[0] in dropped:
            return Subset(())
        return _exception_dist(e)

    return DistLaw("dropping", good.T, good.P,
                   per_member(good.lam.src, good.lam.tgt, rule, name="dropping"))


def _union_dropping_law() -> DistLaw:
    """exception-dist over a powerset whose multiplication drops every
    member with two or more elements: built by ``per_member`` at the outer
    P, so linear there, but its rule does not split unions in its member."""
    from decagon.distlaw import _BUILTIN_COMPONENTS
    from decagon.monads import MonadMonoidal
    from decagon.transforms import per_member

    T, good = builtin_monads()["exception"], powerset_monad()

    def rule(e):
        S = e._members[0]
        return S if len(S._members) < 2 else Subset(())

    P = MonadMonoidal("union-dropping", good.functor, good.unit,
                      per_member(good.mult.src, good.mult.tgt, rule, name="union-dropping"))
    return DistLaw("union-dropping", T, P, _BUILTIN_COMPONENTS["exception-dist"](T, P))


def _error_adding_alpha() -> DistLawAlgebra:
    """The exception law's alpha, built by ``per_member`` at its P, that
    adds inr(e) beside each member inl(y) of the subset in inl(S)."""
    from decagon.transforms import per_member

    good = monoidal_to_algebra(exception_over_powerset())

    def rule(e):
        t = e.value._members[0] if type(e) is Inl else e
        return subset([t, Inr(Atom("e"))] if type(t) is Inl else [t])

    return DistLawAlgebra("error-adding", good.T, good.P,
                          per_member(good.alpha.src, good.alpha.tgt, rule, name="error-adding"))


def _operator_forms(law):
    """The no-iteration form and the Kleisli extension of ``law``, in lambda
    or algebra form, each beside a reference whose operator is wrapped in a
    plain lambda, so that it shows no linearity and quantifies every arrow
    over its whole hom-set."""
    from decagon.distlaw import DistLawNoIteration, extend_to_kleisli
    from decagon.monads import MonadExtensive

    alg = law if isinstance(law, DistLawAlgebra) else monoidal_to_algebra(law)
    ni, M = algebra_to_noiter(alg), extend_to_kleisli(alg)
    return [
        (check_noiter, ni, DistLawNoIteration(ni.name, ni.T, ni.P, lambda f: ni.op(f))),
        (check_monad_extensive, M,
         MonadExtensive(M.name, M.obj, M.unit_at, lambda f: M.ext(f), M.ambient)),
    ]


@pytest.mark.parametrize("size", [0, 1, 2])
@pytest.mark.parametrize("make", [exception_over_powerset, writer_over_powerset, _dropping_law],
                         ids=lambda f: f.__name__)
def test_generator_valued_f_gives_the_full_verdict(make, size):
    # the reduced quantifier counts the instances it covers and reruns the
    # first failing assignment in full, so every field of the verdict is the
    # full quantifier's wherever the full hom-sets fit HOM_CAP
    U = TestUniverse.sizes(size)
    for check, reduced, reference in _operator_forms(make()):
        got, want = check(reduced, U), check(reference, U)
        assert [(v.axiom, v.passed, v.checked, v.skipped, v.witness) for v in got.verdicts] == \
            [(v.axiom, v.passed, v.checked, v.skipped, v.witness) for v in want.verdicts]
        assert {v.axiom for v in got.verdicts if v.reduction == "generator-valued-f"} == \
            {"op-unit", "op-composition", "extension-unit", "extension-composition"} & \
            {v.axiom for v in got.verdicts}
        assert all(v.reduction is None for v in want.verdicts)


def _full_verdicts(make, size):
    """Per operator form of ``make()``, its reduced and its reference
    verdict rows at universe size ``size``, and the reduced axioms."""
    U = TestUniverse.sizes(size)
    for check, reduced, reference in _operator_forms(make()):
        got, want = check(reduced, U), check(reference, U)
        yield ([(v.axiom, v.passed, v.checked, v.skipped, v.witness) for v in got.verdicts],
               [(v.axiom, v.passed, v.checked, v.skipped, v.witness) for v in want.verdicts],
               {v.axiom for v in got.verdicts if v.reduction == "generator-valued-f"})


@pytest.mark.parametrize("size", [0, 1, 2])
def test_a_multiplication_that_does_not_split_members_keeps_the_whole_hom_sets(size):
    # the mutant is linear at its outer P only: f still ranges over its
    # generators, g and the f of extension-unit over their whole hom-sets,
    # and every verdict is the full quantifier's
    law = _union_dropping_law()
    assert law.P.mult.linear == {0}
    ext = monoidal_to_extensive(law.P).ext
    assert ext.joins and not ext.linear_in_values
    for got, want, reduced in _full_verdicts(_union_dropping_law, size):
        assert got == want
        assert "extension-unit" not in reduced
    assert not check_monad_extensive(monoidal_to_extensive(law.P), U2).ok


def test_a_per_member_alpha_mutant_is_caught_wherever_the_full_quantifier_catches_it():
    # with f = {inl(y)} and g(y) = {}, op(g) after op(f) adds inr(e) and op
    # of the composite does not: the reduced g and f reach that instance
    assert _error_adding_alpha().alpha.linear == {1}
    caught = set()
    for size in (0, 1, 2):
        for got, want, reduced in _full_verdicts(_error_adding_alpha, size):
            assert got == want
            assert {"op-composition", "extension-composition"} & {a for a, *_ in got} <= reduced
            caught |= {(size, a) for a, passed, *_ in got if not passed}
    assert {(size, a) for size in (1, 2) for a in ("op-composition", "extension-composition")} \
        <= caught


def test_the_dropping_law_fails_every_operator_axiom():
    law = _dropping_law()
    assert monoidal_to_algebra(law).alpha.linear == {1}
    for check, reduced, reference in _operator_forms(law):
        for report in (check(reduced, U2), check(reference, U2)):
            assert not any(v.passed for v in report.verdicts), report.summary()
    comp = check_noiter(algebra_to_noiter(monoidal_to_algebra(law)), U2).verdict("op-composition")
    assert comp.reduction == "generator-valued-f"
    assert comp.witness.as_dict() == {"at": "f:1->2,g:2->1", "element": "inl(a)",
                                      "lhs": "{}", "rhs": "{inl(a)}"}


def _tabulated_alpha() -> DistLawAlgebra:
    law = exception_over_powerset()
    return noiter_to_algebra(algebra_to_noiter(monoidal_to_algebra(law)), U1, law.P)


@pytest.mark.parametrize("size", [0, 1, 2])
@pytest.mark.parametrize("make", [exception_over_powerset, writer_over_powerset, _tabulated_alpha,
                                  _dropping_law, _error_adding_alpha], ids=lambda f: f.__name__)
def test_op_composition_is_the_extension_composition_of_op(make, size):
    # op-composition states extension-composition in the Kleisli category
    # of P right-hand side first, so the rows agree with lhs and rhs swapped
    from decagon.distlaw import extend_to_kleisli
    from decagon.report import Witness

    law = make()
    alg = law if isinstance(law, DistLawAlgebra) else monoidal_to_algebra(law)
    U = TestUniverse.sizes(size)
    op = check_noiter(algebra_to_noiter(alg), U).verdict("op-composition")
    ext = check_monad_extensive(extend_to_kleisli(alg), U).verdict("extension-composition")
    assert (op.passed, op.checked, op.skipped, op.reduction) == \
        (ext.passed, ext.checked, ext.skipped, ext.reduction)
    w = ext.witness
    assert op.witness == (w and Witness(w.at, w.element, w.rhs, w.lhs))


def test_only_operators_built_from_linear_parts_range_f_over_generators():
    from decagon.distlaw import DistLawAlgebra, DistLawNoIteration, extend_to_kleisli
    from decagon.transforms import Extension

    def reduced(report):
        return [v.axiom for v in report.verdicts if v.reduction == "generator-valued-f"]

    for law in (exception_over_powerset(), writer_over_powerset()):
        alg = monoidal_to_algebra(law)
        assert alg.alpha.linear == {1}
        ni, M = algebra_to_noiter(alg), extend_to_kleisli(alg)
        assert isinstance(ni.op, Extension) and ni.op.linear_in_values
        assert isinstance(M.ext, Extension) and M.ext.linear_in_values
        # composition in the Kleisli category lifts g through P's extension,
        # which is linear in g's values and joins
        assert generator_valued_arrows(M.ext, M.ambient) == ((0,), (0, 1))
        assert reduced(check_noiter(ni, U1)) == ["op-unit", "op-composition"]
        assert reduced(check_monad_extensive(M, U1)) == ["extension-unit", "extension-composition"]

    law = exception_over_powerset()
    alg = monoidal_to_algebra(law)
    ni = algebra_to_noiter(alg)
    tabulated_alpha = noiter_to_algebra(ni, U1, law.P)
    # the same element formula, which needs no object, with no linearity
    formula_alpha = DistLawAlgebra(law.name, law.T, law.P,
                                   formula(alg.alpha.src, alg.alpha.tgt, alg.alpha.rule(None)))
    # P's multiplication splits unions in its input and in each member;
    # composition in the base category takes its values from its first
    # argument, and preserves unions in f's values after an ext(g) that joins
    powerset = monoidal_to_extensive(powerset_monad())
    assert powerset.ext.joins and powerset.ext.linear_in_values
    assert powerset_monad().mult.linear == {0, 1}
    assert generator_valued_arrows(powerset.ext, BASE_CATEGORY) == ((0,), (0, 1))
    assert generator_valued_arrows(ni.op, BASE_CATEGORY) == ((0,), (0,))
    assert reduced(check_monad_extensive(powerset, U1)) == ["extension-unit",
                                                            "extension-composition"]
    for report in (check_noiter(DistLawNoIteration(law.name, law.T, ni.P, lambda f: ni.op(f)), U1),
                   check_noiter(algebra_to_noiter(tabulated_alpha), U1),
                   check_noiter(algebra_to_noiter(formula_alpha), U1),
                   check_monad_extensive(extend_to_kleisli(tabulated_alpha), U1),
                   check_monad_extensive(extend_to_kleisli(formula_alpha), U1),
                   check_monad_extensive(MonadExtensive(powerset.name, powerset.obj,
                                                        powerset.unit_at,
                                                        lambda f: powerset.ext(f)), U1)):
        assert report.ok and reduced(report) == [], report.summary()


def test_a_memoised_operator_has_the_records_of_the_operator_it_wraps():
    # the shared equations evaluate a memo of the operator, and read its
    # records through it
    powerset = monoidal_to_extensive(powerset_monad())
    cases = [(powerset.ext, BASE_CATEGORY, ((0,), (0, 1)))]
    for law in builtin_laws().values():
        if not isinstance(law, MixedLaw):
            ni = algebra_to_noiter(monoidal_to_algebra(law))
            cases.append((ni.op, kleisli(ni.P), ((0,), (0, 1))))
    cases.append((lambda f: powerset.ext(f), BASE_CATEGORY, ((), ())))
    assert len(cases) == 4
    for op, amb, arrows in cases:
        assert generator_valued_arrows(op, amb) == arrows
        assert generator_valued_arrows(cache(op), amb) == arrows


def _tabulated_t_law() -> DistLaw:
    """exception-dist over a T recovered from its extension data, tabulated
    on sizes <= 1."""
    from decagon.distlaw import _BUILTIN_COMPONENTS
    from decagon.monads import extensive_to_monoidal

    P, exc = builtin_monads()["powerset"], builtin_monads()["exception"]
    T = extensive_to_monoidal(monoidal_to_extensive(exc), exc.functor, U1)
    return DistLaw("tabulated-T", T, P, _BUILTIN_COMPONENTS["exception-dist"](T, P))


@pytest.mark.parametrize("make", [exception_over_powerset, writer_over_powerset,
                                  _tabulated_t_law], ids=lambda f: f.__name__)
def test_derived_families_are_the_composites_of_their_parts(make):
    # each derived family's table is the composite of its parts' tables:
    # alpha = Pm . lambdaT, lambda = alpha . TPu, the composite unit etaT . u
    # and multiplication muT . PPm . PlambdaT, and the Kleisli unit is the
    # composite unit; a component missing on one side is missing on the
    # other.  An instance that needs a table over more than 1,000 elements
    # is left out: the writer multiplication's source at |X| = 2 has 2^32.
    from decagon.distlaw import extend_to_kleisli
    from decagon.functors import apply_mor, size_within
    from decagon.transforms import ComponentUnavailable

    D = make()
    T, P = D.T.functor, D.P.functor
    u, m, eta, mu = D.T.unit, D.T.mult, D.P.unit, D.P.mult
    alg = monoidal_to_algebra(D)
    lam = algebra_to_monoidal(alg).lam
    comp = compose_monads(alg)

    class TooLarge(Exception):
        pass

    def mor(F, f):
        if size_within(F, len(f.dom), 1000) > 1000:
            raise TooLarge
        return apply_mor(F, f)

    def chain(*tables):
        out = tables[-1]
        for t in reversed(tables[:-1]):
            out = compose(t, out)
        return out

    def unit_parts(X):
        return chain(eta.component(apply_obj(T, X)), u.component(X))

    cases = {
        "alpha": (alg.alpha, alg.alpha.component, lambda X: chain(
            mor(P, m.component(X)), D.lam.component(apply_obj(T, X)))),
        "lambda": (lam, lam.component, lambda X: chain(
            alg.alpha.component(X), mor(compose_functors(T, P), u.component(X)))),
        "unit": (comp.unit, comp.unit.component, unit_parts),
        "mult": (comp.mult, comp.mult.component, lambda X: chain(
            mu.component(apply_obj(T, X)), mor(compose_functors(P, P), m.component(X)),
            mor(P, lam.component(apply_obj(T, X))))),
        "kleisli-unit": (comp.unit, extend_to_kleisli(alg).unit_at, unit_parts),
    }
    checked = {}
    for name, (nt, table, parts) in cases.items():
        checked[name] = []
        for X in U2.objects:
            try:
                if size_within(nt.src, len(X), 1000) > 1000:
                    raise TooLarge
                want = parts(X)
            except TooLarge:
                continue
            except ComponentUnavailable:
                with pytest.raises(ComponentUnavailable):
                    table(X)
                continue
            assert table(X) == want, (name, len(X))
            checked[name].append(len(X))
    sizes = [0, 1] if make is _tabulated_t_law else [0, 1, 2]  # T's tables stop at size 1
    mult = [0, 1] if make is exception_over_powerset else [0]
    assert checked == {**dict.fromkeys(cases, sizes), "mult": mult}
    objects = U1.objects if make is _tabulated_t_law else None
    for nt in (alg.alpha, lam, comp.unit, comp.mult):
        assert (nt.needs_object, nt.tabulated_objects) == (objects is not None, objects), nt.name


def test_derived_families_of_a_search_survivor_keep_its_objects():
    from decagon.search import SearchSpec, enumerate_candidates

    T, P = builtin_monads()["exception"], builtin_monads()["powerset"]
    survivor = enumerate_candidates(SearchSpec(T, P, universe=U1)).survivors[0]
    alg = monoidal_to_algebra(DistLaw("survivor", T, P, survivor))
    comp = compose_monads(alg)
    for nt in (alg.alpha, algebra_to_monoidal(alg).lam, comp.mult):
        assert nt.needs_object and nt.tabulated_objects == survivor.tabulated_objects, nt.name
    assert not comp.unit.needs_object and comp.unit.tabulated_objects is None


# --- mixed laws --------------------------------------------------------------


def test_tabulated_t_law_gives_verdicts_with_skips():
    # T recovered from its extension data is tabulated on sizes <= 1; the
    # families built from its unit and multiplication take their object, so
    # a missing component is a skipped instance rather than a wrong lookup
    alg = monoidal_to_algebra(_tabulated_t_law())
    assert alg.alpha.needs_object and alg.alpha.tabulated_objects == U1.objects

    def rows(report):
        return [(v.axiom, v.passed, v.checked, v.skipped) for v in report.verdicts]

    assert rows(check_algebra(alg, U1)) == [
        ("unit-triangle", False, 0, 2), ("eta-square", True, 2, 0), ("hexagon", False, 0, 2)]
    assert rows(check_monad_monoidal(compose_monads(alg), U1)) == [
        ("unit-left", False, 0, 2), ("unit-right", True, 1, 1), ("associativity", False, 0, 2)]


def test_coreader_strength_passes_both_mixed_suites():
    law = coreader_over_powerset()
    rep1 = check_mixed_decagon(law, U2)
    rep2 = check_mixed_classic(law, U2)
    assert rep1.ok, rep1.summary()
    assert rep2.ok, rep2.summary()


def test_mixed_lambda_empty_fails_epsilon_triangle():
    law = coreader_over_powerset()
    bad = MixedLaw(
        "bad", law.L, law.R,
        formula(law.lam.src, law.lam.tgt, lambda e: Subset(()), "bad"),
    )
    report = check_mixed_decagon(bad, U2)
    assert not report.verdict("epsilon-triangle").passed


def test_mixed_delta_mutation_fails_delta_pentagon():
    # A uniform formula mutation commutes with the strength on both routes,
    # so the mutation must be object-dependent: it swaps the outer tag only
    # at singleton objects.  The pentagon compares delta at X against delta
    # at RX, whose sizes differ, and the two branches disagree.
    from decagon.monads import ComonadMonoidal
    from decagon.transforms import NatTrans

    law = coreader_over_powerset()
    L = law.L.functor
    swap = {Atom("a1"): Atom("a2"), Atom("a2"): Atom("a1")}

    def rule(X):
        if len(X) == 1:
            return lambda e: Pair(swap[e.fst], Pair(e.fst, e.snd))
        return lambda e: Pair(e.fst, Pair(e.fst, e.snd))

    bad_delta = NatTrans(L, compose_functors(L, L), rule, name="delta", needs_object=True)
    badL = ComonadMonoidal("bad", L, law.L.counit, bad_delta)
    bad = MixedLaw("bad", badL, law.R, law.lam)
    report = check_mixed_classic(bad, U2)
    assert not report.verdict("delta-pentagon").passed


def test_mixed_identity_comonad_trivial():
    from decagon.functors import Id
    from decagon.monads import ComonadMonoidal

    R = powerset_monad()
    I = Id()
    L = ComonadMonoidal("id", I, formula(I, I, lambda e: e), formula(I, I, lambda e: e))
    lam = formula(R.functor, R.functor, lambda e: e, "id")
    law = MixedLaw("id-over-powerset", L, R, lam)
    assert check_mixed_decagon(law, U2).ok
    assert check_mixed_classic(law, U2).ok


# --- registry ----------------------------------------------------------------


def test_law_from_config_round_trip():
    cfg = {
        "law": "exception-over-powerset",
        "T": {"name": "exception", "E": ["e"]},
        "P": {"name": "powerset"},
        "lambda": "builtin:exception-dist",
    }
    law = law_from_config(cfg)
    assert isinstance(law, DistLaw)
    reference = exception_over_powerset()
    for X in U2.objects:
        assert law.lam.component(X) == reference.lam.component(X)


def test_law_from_config_writer():
    cfg = {
        "law": "writer-over-powerset",
        "T": {"name": "writer",
              "monoid": {"elems": ["1", "s"], "op": [["1", "s"], ["s", "1"]], "unit": "1"}},
        "P": {"name": "powerset"},
        "lambda": "builtin:writer-strength",
    }
    assert check_beck(law_from_config(cfg), U1).ok


def test_builtin_laws_registry():
    laws = builtin_laws()
    assert set(laws) == {"exception-over-powerset", "writer-over-powerset",
                         "coreader-over-powerset"}


def test_builtin_law_components_are_natural():
    from decagon.transforms import check_naturality

    for law in builtin_laws().values():
        assert check_naturality(law.lam, U2.all_morphisms()) is None, law.name


def test_identity_monad_extension_is_identity_operator():
    ext = monoidal_to_extensive(identity_monad())
    X, Y = atoms("a", "b"), atoms("c")
    for f in all_functions(X, Y):
        assert ext.ext(f) == f


def test_converters_refuse_failing_preconditions():
    from decagon.monads import ConstructionRefused

    good = monoidal_to_algebra(exception_over_powerset())
    bad = DistLawAlgebra(
        "bad", good.T, good.P,
        formula(good.alpha.src, good.alpha.tgt, lambda e: Subset(()), "bad"),
    )
    with pytest.raises(ConstructionRefused) as err:
        algebra_to_monoidal(bad, U1)
    assert "eta-square" in str(err.value) or "unit-triangle" in str(err.value)
    with pytest.raises(ConstructionRefused):
        compose_monads(bad, U1)


def test_extensive_to_monoidal_checks_object_action():
    from decagon.functors import Power
    from decagon.monads import ConversionError, exception_monad, extensive_to_monoidal

    ext = monoidal_to_extensive(exception_monad(["e"]))
    with pytest.raises(ConversionError):
        extensive_to_monoidal(ext, Power(), U1)


def test_library_tables_refuse_oversize_carriers_before_building_them():
    # the writer composite's multiplication at |X| = 2 would need PTPT(2),
    # 2^32 elements, and P applied twice to m's table P(P(8)), 2^256
    import time

    from decagon.functors import Power, apply_mor
    from decagon.transforms import OversizeCarrier

    D = writer_over_powerset()
    X = atoms("a", "b")
    start = time.perf_counter()
    with pytest.raises(OversizeCarrier):
        compose_monads(monoidal_to_algebra(D)).mult.component(X)
    with pytest.raises(OversizeCarrier):
        apply_mor(compose_functors(Power(), Power()), D.T.mult.component(X))
    assert time.perf_counter() - start < 1.0


def test_naturality_skips_a_square_whose_component_is_over_the_cap():
    # the writer composite's multiplication has components at |X| <= 1 only:
    # at |X| = 2 it would need PTPT(2), 2^32 elements
    from decagon.transforms import check_naturality

    mult = compose_monads(monoidal_to_algebra(writer_over_powerset())).mult
    assert check_naturality(mult, TestUniverse.sizes(2).all_morphisms()) is None
