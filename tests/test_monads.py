import pytest

from decagon.elements import (
    Atom,
    FinFn,
    FinSet,
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
from decagon.functors import Id, Power, apply_obj
from decagon.monads import (
    GROUP_Z2,
    ConstructionRefused,
    Monoid,
    MonadMonoidal,
    TestUniverse,
    builtin_monads,
    check_category,
    check_comonad,
    check_monad_extensive,
    check_monad_monoidal,
    coreader_comonad,
    exception_monad,
    extensive_to_monoidal,
    identity_monad,
    kleisli,
    monoidal_to_extensive,
    powerset_monad,
    writer_monad,
)
from decagon.transforms import formula

U2 = TestUniverse.sizes(2)
MONAD_NAMES = ["identity", "maybe", "exception", "exception2", "writer", "reader", "powerset"]


@pytest.mark.parametrize("name", MONAD_NAMES)
def test_builtin_monads_pass_monoidal_laws(name):
    report = check_monad_monoidal(builtin_monads()[name], U2)
    assert report.ok, report.summary()


@pytest.mark.parametrize("name", MONAD_NAMES)
def test_builtin_monads_pass_extensive_laws(name):
    ext = monoidal_to_extensive(builtin_monads()[name])
    report = check_monad_extensive(ext, U2)
    assert report.ok, report.summary()


def test_identity_monad_trivially_passes():
    assert check_monad_monoidal(identity_monad(), U2).ok


def test_broken_multiplication_detected_with_witness():
    # multiplication that collapses everything onto the error tag
    M = exception_monad(["e"])
    T = M.functor
    from decagon.functors import compose_functors

    broken = MonadMonoidal(
        "broken", T, M.unit,
        formula(compose_functors(T, T), T, lambda e: Inr(Atom("e")), "m"),
    )
    report = check_monad_monoidal(broken, U2)
    assert not report.ok
    failing = [v for v in report.verdicts if not v.passed]
    assert failing and failing[0].witness is not None


def test_extension_of_unit_is_identity():
    for name in MONAD_NAMES:
        M = builtin_monads()[name]
        ext = monoidal_to_extensive(M)
        for X in U2.objects:
            assert ext.ext(ext.unit_at(X)) == identity(ext.obj(X))


def test_maybe_extension_table():
    # X = {a}, f(a) = inr(e): the extension sends inl(a) to inr(e) and
    # inr(e) to inr(e); expected table computed by evaluating m(T f) by hand.
    M = exception_monad(["e"])
    ext = monoidal_to_extensive(M)
    X = atoms("a")
    TX = ext.obj(X)
    f = FinFn(X, TX, {Atom("a"): Inr(Atom("e"))})
    table = ext.ext(f)
    assert table(Inl(Atom("a"))) == Inr(Atom("e"))
    assert table(Inr(Atom("e"))) == Inr(Atom("e"))


def test_extension_constant_unit_fails_axiom_one():
    M = exception_monad(["e"])
    good = monoidal_to_extensive(M)

    def bad_ext(f):
        dom = good.obj(f.dom)
        anchor = f(f.dom.elements[0]) if len(f.dom) else f.cod.elements[0]
        return FinFn(dom, f.cod, lambda _: anchor)

    from decagon.monads import MonadExtensive

    bad = MonadExtensive("bad", good.obj, good.unit_at, bad_ext)
    report = check_monad_extensive(bad, U2)
    assert not report.verdict("extension-unit").passed


def test_junk_codomain_extension_fails_every_axiom_with_witness():
    # ext(f) agrees with the good extension on every element but adds one
    # junk element to its codomain, so no two sides differ on an element
    good = monoidal_to_extensive(exception_monad(["e"]))

    def junk_ext(f):
        g = good.ext(f)
        return FinFn(g.dom, FinSet(g.cod.elements + (Atom("junk"),)), g.pairs)

    from decagon.monads import MonadExtensive

    U0 = TestUniverse.sizes(0)
    report = check_monad_extensive(MonadExtensive("junk", good.obj, good.unit_at, junk_ext), U0)
    rows = {v.axiom: (v.passed, v.checked, v.witness.as_dict()) for v in report.verdicts}
    assert rows == {
        "extension-unit": (False, 1, {"at": "f:0->0", "element": "codomain",
                                      "lhs": "FinSet({junk,inr(e)})", "rhs": "FinSet({inr(e)})"}),
        "unit-extension": (False, 1, {"at": "|X|=0", "element": "codomain",
                                      "lhs": "FinSet({junk,inr(e)})", "rhs": "FinSet({inr(e)})"}),
        "extension-composition": (False, 1, {"at": "f:0->0,g:0->0", "element": "composition",
                                             "lhs": "codomain FinSet({junk,inr(e)})",
                                             "rhs": "domain FinSet({inr(e)})"}),
    }


def _junk_kleisli(junk_ext):
    from decagon.monads import MonadExtensive

    good = monoidal_to_extensive(exception_monad(["e"]))
    return kleisli(MonadExtensive("junk", good.obj, good.unit_at, lambda f: junk_ext(good.ext(f))))


def _junk_codomain(g):
    return FinFn(g.dom, FinSet(g.cod.elements + (Atom("junk"),)), g.pairs)


def _junk_domain(g):
    junk = Atom("junk")
    return FinFn(FinSet(g.dom.elements + (junk,)), g.cod, g.pairs + ((junk, g.cod.elements[0]),))


_CODOMAIN_JUNK = {"element": "codomain", "lhs": "FinSet({junk,inr(e)})",
                  "rhs": "FinSet({inr(e)})"}
_CANNOT_COMPOSE_AFTER_JUNK = {"element": "composition", "lhs": "codomain FinSet({junk,inr(e)})",
                              "rhs": "domain FinSet({inr(e)})"}
_CANNOT_COMPOSE_INTO_JUNK = {"element": "composition", "lhs": "codomain FinSet({inr(e)})",
                             "rhs": "domain FinSet({junk,inr(e)})"}


@pytest.mark.parametrize("junk_ext,unitality,associativity", [
    # a junk codomain reaches the unit laws only as a wrong codomain, and
    # h . (g . f) as a failed composition
    (_junk_codomain, _CODOMAIN_JUNK, _CANNOT_COMPOSE_AFTER_JUNK),
    # a junk domain already breaks f . id and g . f, which every
    # associativity instance over f and g reuses
    (_junk_domain, _CANNOT_COMPOSE_INTO_JUNK, _CANNOT_COMPOSE_INTO_JUNK),
])
def test_check_category_fails_bad_compositions_with_witness(junk_ext, unitality, associativity):
    report = check_category(_junk_kleisli(junk_ext), TestUniverse.sizes(0))
    rows = {v.axiom: (v.passed, v.checked, v.witness.as_dict()) for v in report.verdicts}
    assert rows == {
        "unitality": (False, 2, {"at": "f:0->0,id-right", **unitality}),
        "associativity": (False, 1, {"at": "f:0->0,g:0->0,h:0->0", **associativity}),
    }


def _counting(op):
    calls = []

    def counted(f):
        calls.append(f)
        return op(f)

    return counted, calls


@pytest.mark.parametrize("name", ["exception", "powerset", "writer"])
def test_check_monad_extensive_extends_each_morphism_once(name):
    from decagon.monads import MonadExtensive

    good = monoidal_to_extensive(builtin_monads()[name])
    ext, calls = _counting(good.ext)
    report = check_monad_extensive(MonadExtensive(name, good.obj, good.unit_at, ext), U2)
    assert report.ok
    assert calls and len(calls) == len(set(calls))


def test_refusals_are_report_refused():
    from decagon.report import Refused
    from decagon.transforms import ComponentUnavailable, OversizeCarrier

    assert issubclass(OversizeCarrier, Refused)
    assert issubclass(ComponentUnavailable, Refused)


def test_universe_describes_its_sizes_and_cap():
    assert TestUniverse.sizes(2).describe() == "sizes=0,1,2 cap=200000"


def test_check_monad_extensive_skips_extensions_that_refuse():
    # ext refuses every morphism out of a two-element set; every other
    # instance is still evaluated
    from decagon.monads import MonadExtensive
    from decagon.transforms import OversizeCarrier

    good = monoidal_to_extensive(builtin_monads()["exception"])

    def ext(f):
        if len(f.dom) == 2:
            raise OversizeCarrier("refused")
        return good.ext(f)

    report = check_monad_extensive(MonadExtensive("refusing", good.obj, good.unit_at, ext), U2)
    full = check_monad_extensive(good, U2)
    assert all(v.passed and v.skipped > 0 for v in report.verdicts), report.summary()
    assert [v.checked + v.skipped for v in report.verdicts] == [v.checked for v in full.verdicts]
    assert all(v.skipped == 0 for v in full.verdicts)


def test_compare_names_a_domain_mismatch():
    from decagon.report import compare

    f = FinFn(atoms("a"), atoms("a"), lambda x: x)
    v = compare("x", [("here", (f, identity(atoms("a", "b"))))])
    assert not v.passed
    assert v.witness.as_dict() == {"at": "here", "element": "domain",
                                   "lhs": "FinSet({a})", "rhs": "FinSet({a,b})"}


def test_round_trip_monoidal_extensive_monoidal():
    for name in MONAD_NAMES:
        M = builtin_monads()[name]
        back = extensive_to_monoidal(monoidal_to_extensive(M), M.functor, U2)
        for X in U2.objects:
            assert back.unit.component(X) == M.unit.component(X)
            assert back.mult.component(X) == M.mult.component(X)


def test_round_trip_extensive_monoidal_extensive():
    for name in MONAD_NAMES:
        M = builtin_monads()[name]
        ext = monoidal_to_extensive(M)
        back = monoidal_to_extensive(extensive_to_monoidal(ext, M.functor, U2))
        for X in U2.objects:
            for Y in U2.objects:
                for f in all_functions(X, ext.obj(Y))[:8]:
                    assert back.ext(f) == ext.ext(f)


def test_powerset_multiplication_is_union():
    # m = extension of the identity on PX; on X = {a} the four elements of
    # PPX flatten by union: evaluated directly here as the oracle.
    M = powerset_monad()
    ext = monoidal_to_extensive(M)
    X = atoms("a")
    PX = ext.obj(X)
    m = ext.ext(identity(PX))
    for e in apply_obj(Power(), PX):
        expected = subset(x for s in e.members for x in s.members)
        assert m(e) == expected


def test_writer_monoid_validation():
    # non-associative: (a.b).b = b but a.(b.b) = a
    bad_assoc = Monoid(
        elems=("1", "a", "b"),
        op=(("1", "a", "b"), ("a", "1", "1"), ("b", "a", "1")),
        unit="1",
    )
    with pytest.raises(ValueError):
        writer_monad(bad_assoc)
    with pytest.raises(ValueError):
        writer_monad(Monoid(elems=("1", "s"), op=(("s", "1"), ("1", "s")), unit="1"))
    writer_monad(GROUP_Z2)


def test_kleisli_category_laws():
    P = monoidal_to_extensive(powerset_monad())
    U1 = TestUniverse.sizes(1)
    kl = kleisli(P, U1)
    # identity at {a} is the singleton map
    X = atoms("a")
    assert kl.identity(X)(Atom("a")) == Subset((Atom("a"),))
    report = check_category(kl, U1)
    assert report.ok, report.summary()


def test_kleisli_associativity_exception_size2():
    P = monoidal_to_extensive(exception_monad(["e"]))
    kl = kleisli(P)
    report = check_category(kl, TestUniverse.sizes(2))
    assert report.ok


def test_kleisli_identity_for_identity_monad():
    P = monoidal_to_extensive(identity_monad())
    kl = kleisli(P)
    X, Y = atoms("a", "b"), atoms("c")
    for f in all_functions(X, Y):
        for g in all_functions(Y, X):
            assert kl.compose(g, f) == compose(g, f)


def test_kleisli_refuses_broken_monad():
    good = monoidal_to_extensive(exception_monad(["e"]))

    def bad_ext(f):
        dom = good.obj(f.dom)
        anchor = f.cod.elements[0]
        return FinFn(dom, f.cod, lambda _: anchor)

    from decagon.monads import MonadExtensive

    bad = MonadExtensive("bad", good.obj, good.unit_at, bad_ext)
    with pytest.raises(ConstructionRefused):
        kleisli(bad, TestUniverse.sizes(1))


def test_check_category_witnesses_broken_kleisli_composition():
    # the Kleisli category of the constant extension, built without the
    # precheck: its identities are not units
    good = monoidal_to_extensive(exception_monad(["e"]))

    def bad_ext(f):
        anchor = f.cod.elements[0]
        return FinFn(good.obj(f.dom), f.cod, lambda _: anchor)

    from decagon.monads import MonadExtensive

    kl = kleisli(MonadExtensive("bad", good.obj, good.unit_at, bad_ext))
    report = check_category(kl, TestUniverse.sizes(1))
    v = report.verdict("unitality")
    assert not v.passed and v.checked == 10
    w = v.witness
    assert (w.at, w.element, w.lhs, w.rhs) == ("f:1->1,id-right", "a", "inl(a)", "inr(e)")
    assert report.verdict("associativity").passed


def test_coreader_comonad_passes():
    C = coreader_comonad(["a1", "a2"])
    report = check_comonad(C, U2)
    assert report.ok, report.summary()


def test_coreader_broken_comult_fails_counit():
    from decagon.functors import compose_functors
    from decagon.monads import ComonadMonoidal

    C = coreader_comonad(["a1", "a2"])
    L = C.functor
    fixed = Atom("a1")
    bad = ComonadMonoidal(
        "bad", L, C.counit,
        formula(L, compose_functors(L, L), lambda e: Pair(e.fst, Pair(fixed, e.snd)), "delta"),
    )
    report = check_comonad(bad, U2)
    assert not report.verdict("counit-left").passed or not report.verdict("counit-right").passed


def test_identity_comonad_trivially_passes():
    from decagon.monads import ComonadMonoidal

    I = Id()
    C = ComonadMonoidal("id", I, formula(I, I, lambda e: e), formula(I, I, lambda e: e))
    assert check_comonad(C, U2).ok


def test_naturality_of_builtin_units():
    from decagon.transforms import check_naturality

    for name in MONAD_NAMES:
        M = builtin_monads()[name]
        assert check_naturality(M.unit, U2.all_morphisms()) is None
        assert check_naturality(M.mult, U2.all_morphisms()) is None


def test_check_category_skips_kleisli_compositions_without_components():
    # the extensive monad that the first search survivor for (exception,
    # powerset) induces on the Kleisli category of P: the survivor is
    # tabulated on sizes <= 1 only, so alpha has a component at |Z| = 0
    # (T(Z) has one element) but not at |Z| = 1.  A composite through Z
    # needs alpha at Z: unitality evaluates the 3 of 8 morphisms into
    # |Y| = 0, both ways; associativity evaluates the 13 of 164 triples
    # with |Z| = |W| = 0.
    from decagon.distlaw import DistLaw, extend_to_kleisli, monoidal_to_algebra
    from decagon.search import SearchSpec, enumerate_candidates

    T, P = builtin_monads()["exception"], builtin_monads()["powerset"]
    U1 = TestUniverse.sizes(1)
    survivor = enumerate_candidates(SearchSpec(T, P, universe=U1)).survivors[0]
    alg = monoidal_to_algebra(DistLaw("survivor", T, P, survivor))
    report = check_category(kleisli(extend_to_kleisli(alg)), U1)
    rows = [(v.axiom, v.passed, v.checked, v.skipped, v.witness) for v in report.verdicts]
    assert rows == [("unitality", True, 6, 10, None), ("associativity", True, 13, 151, None)]


def test_base_category_composes_through_the_module_name(monkeypatch):
    # the benchmark counts compositions by rebinding ``compose`` in each
    # module that holds it; the base category must look it up per call
    import decagon.monads
    from decagon.distlaw import builtin_laws, extend_to_kleisli, monoidal_to_algebra

    calls = []

    def counting(g, f):
        calls.append(1)
        return compose(g, f)

    ext = extend_to_kleisli(monoidal_to_algebra(builtin_laws()["exception-over-powerset"]))
    monkeypatch.setattr(decagon.monads, "compose", counting)
    report = check_monad_extensive(ext, TestUniverse.sizes(1))
    monkeypatch.undo()
    assert report.ok, report.summary()
    assert len(calls) > 0
