from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from decagon.elements import (
    Atom, FinFn, FnTable, Inl, Inr, Pair, Subset, all_functions, atoms, compose, element_key, identity,
    subset,
)
from decagon.functors import (
    Comp,
    Const,
    Exp,
    Id,
    Power,
    Prod,
    Sum,
    apply_elem,
    apply_mor,
    apply_obj,
    compiled_action,
    compose_functors,
    size_within,
)
from decagon.functors import _OBJ_CACHE
from decagon.transforms import OversizeCarrier
from test_elements import key_is_set, reference_key

SMALL = [atoms(), atoms("a"), atoms("a", "b")]

FUNCTORS = [
    Id(),
    Const(atoms("k1", "k2")),
    Sum(Id(), Const(atoms("e"))),
    Prod(Const(atoms("m1", "m2")), Id()),
    Power(),
    Exp(atoms("r1", "r2")),
    Comp(Power(), Sum(Id(), Const(atoms("e")))),
]


def test_carrier_size_matches_enumeration():
    # size_within is exact up to its cap and saturates at cap + 1 above it
    for F in FUNCTORS:
        for X in SMALL:
            n = len(apply_obj(F, X))
            assert size_within(F, len(X), n) == n
            assert size_within(F, len(X), n + 5) == n
            if n:
                cap = n - 1
                assert size_within(F, len(X), cap) == cap + 1
    # a tower far above the cap saturates without being computed
    assert size_within(Comp(Power(), Comp(Power(), Power())), 10, 1000) == 1001


@pytest.mark.parametrize("F", [
    Comp(Const(atoms("k")), Comp(Power(), Power())),
    Prod(Comp(Power(), Power()), Const(atoms())),
    Comp(Exp(atoms()), Comp(Power(), Power())),
], ids=["constant-outer", "empty-factor", "empty-exponent"])
def test_size_within_saturates_when_a_carrier_built_on_the_way_exceeds_the_cap(F):
    # F(X) has at most one element, but apply_obj would build PP(X), with
    # 2^32 elements at |X| = 5, on the way; the cap guard refuses instead,
    # also after F was built at the default cap on a smaller X
    assert size_within(F, 5, 1000) == 1001
    assert len(apply_obj(F, atoms("a", "b"))) <= 1
    with pytest.raises(OversizeCarrier):
        apply_obj(F, atoms(*"abcde"), 1000)


def test_apply_obj_refuses_an_oversize_carrier_before_building_it():
    F, X = Power(), atoms(*"abcdefghijklmnopqr")  # 2^18 elements
    before = dict(_OBJ_CACHE)
    with pytest.raises(OversizeCarrier):
        apply_obj(F, X, cap=1000)
    assert _OBJ_CACHE == before
    # P(P(16)), 2^65536 elements, at the default cap
    PP = compose_functors(Power(), Power())
    with pytest.raises(OversizeCarrier):
        apply_obj(PP, apply_obj(PP, atoms("a", "b")))


def test_a_carrier_is_refused_under_a_cap_below_its_size_after_a_default_cap_build():
    # the cap is part of the cache key: no verdict depends on which cap
    # built a carrier first
    F, X = Comp(Power(), Power()), atoms("a", "b")
    assert len(apply_obj(F, X)) == 16
    with pytest.raises(OversizeCarrier):
        apply_obj(F, X, cap=15)
    assert apply_obj(F, X, cap=16).elements == apply_obj(F, X).elements


def test_functoriality_identity_and_composition():
    X, Y, Z = SMALL[1], SMALL[2], SMALL[1]
    for F in FUNCTORS:
        for A in SMALL:
            assert apply_mor(F, identity(A)) == identity(apply_obj(F, A))
        for f in all_functions(X, Y):
            for g in all_functions(Y, Z):
                assert apply_mor(F, compose(g, f)) == compose(apply_mor(F, g), apply_mor(F, f))


@pytest.mark.parametrize("F", [
    Power(),
    Comp(Power(), Power()),
    Exp(atoms("r1", "r2")),
    Prod(Id(), Power()),
    Sum(Id(), Power()),
], ids=repr)
def test_compiled_action_calls_the_component_once_per_distinct_element(F):
    X, Y = atoms("a", "b", "c"), atoms("c", "d")
    f = all_functions(X, Y)[5]
    calls = []
    act = compiled_action(F, lambda x: calls.append(x) or f(x))
    dom = apply_obj(F, X)
    for _ in range(2):  # the second pass is all memo hits
        assert [act(e) for e in dom] == [reference_action(F, f, e) for e in dom]
    assert sorted(calls, key=element_key) == list(X.elements)


@pytest.mark.parametrize("F", [Id(), Power(), Comp(Power(), Power()), Exp(atoms("r")),
                               Prod(Id(), Power()), Sum(Id(), Power())], ids=repr)
def test_actions_of_one_functor_from_different_functions_share_no_results(F):
    X, Y = atoms("a", "b"), atoms("c", "d")
    fs = all_functions(X, Y)
    acts = [compiled_action(F, f) for f in fs]
    for _ in range(2):  # the second pass reads every memo
        for f, act in zip(fs, acts):
            assert all(act(e) is reference_action(F, f, e) for e in apply_obj(F, X))


def test_power_is_direct_image():
    X = atoms("a", "b")
    Y = atoms("c")
    collapse = all_functions(X, Y)[0]
    img = apply_mor(Power(), collapse)
    full = Subset((Atom("a"), Atom("b")))
    assert img(full) == Subset((Atom("c"),))


def test_exp_is_postcomposition():
    R = atoms("r")
    X, Y = atoms("a", "b"), atoms("c")
    f = all_functions(X, Y)[0]
    F = Exp(R)
    t = FnTable(((Atom("r"), Atom("a")),))
    assert apply_mor(F, f)(t) == FnTable(((Atom("r"), Atom("c")),))


def test_compose_functors_strips_units():
    T = Sum(Id(), Const(atoms("e")))
    assert compose_functors(Id(), T, Id()) == T
    assert compose_functors() == Id()
    TP = compose_functors(T, Power())
    assert apply_obj(TP, atoms("a")) == apply_obj(T, apply_obj(Power(), atoms("a")))


def reference_action(F, fn, e):
    """F(f) on one element by a recursive, unmemoised walk of the grammar."""
    if isinstance(F, Id):
        return fn(e)
    if isinstance(F, Const):
        return e
    if isinstance(F, Sum):
        if type(e) is Inl:
            return Inl(reference_action(F.left, fn, e.value))
        return Inr(reference_action(F.right, fn, e.value))
    if isinstance(F, Prod):
        return Pair(reference_action(F.left, fn, e.fst), reference_action(F.right, fn, e.snd))
    if isinstance(F, Power):
        return subset(fn(m) for m in e.members)
    if isinstance(F, Exp):
        return FnTable(tuple((k, fn(v)) for k, v in e.entries))
    if isinstance(F, Comp):
        return reference_action(F.outer, lambda y: reference_action(F.inner, fn, y), e)
    raise TypeError(f"not a FunctorExpr: {F!r}")


_LEAVES = [Id(), Power(), Const(atoms("k")), Const(atoms("k1", "k2")), Exp(atoms("r")),
           Exp(atoms("r1", "r2"))]


def functor_exprs(depth):
    leaf = st.sampled_from(_LEAVES)
    if depth == 0:
        return leaf
    sub = functor_exprs(depth - 1)
    return st.one_of(leaf, st.builds(Sum, sub, sub), st.builds(Prod, sub, sub),
                     st.builds(Comp, sub, sub))


@given(functor_exprs(3), st.data())
@settings(max_examples=200, deadline=None)
def test_apply_mor_matches_the_recursive_reference_action(F, data):
    n = data.draw(st.integers(0, 2))
    m = data.draw(st.integers(1 if n else 0, 2))
    X, Y = SMALL[n], SMALL[m]
    assume(size_within(F, 2, 512) <= 512)
    f = data.draw(st.sampled_from(all_functions(X, Y)))
    table = apply_mor(F, f)
    assert table.dom == apply_obj(F, X) and table.cod == apply_obj(F, Y)
    for e in table.dom.elements:
        expected = reference_action(F, f, e)
        assert table(e) is expected
        assert apply_elem(F, f, e) is expected


@given(functor_exprs(3), st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_carriers_come_in_the_structural_order(F, n):
    assume(size_within(F, n, 512) <= 512)
    elements = apply_obj(F, SMALL[n]).elements
    assert len(set(elements)) == len(elements)
    assert list(elements) == sorted(elements, key=reference_key)


def test_power_lists_subsets_in_the_order_of_their_member_tuples():
    for n in range(8):
        labels = "abcdefg"[:n]
        expected = sorted(c for r in range(n + 1) for c in combinations(labels, r))
        carrier = apply_obj(Power(), atoms(*labels))
        assert carrier.elements == tuple(Subset(map(Atom, c)) for c in expected)


def test_power_interns_its_subsets_without_the_subset_sort(monkeypatch):
    X = atoms(*(f"{c}-power-intern" for c in "abcde"))  # labels no other test builds
    calls = []
    new = Subset.__new__
    monkeypatch.setattr(Subset, "__new__", lambda cls, members: calls.append(cls) or new(cls, members))
    carrier = apply_obj(Power(), X)
    monkeypatch.undo()
    assert calls == [] and len(carrier) == 32
    assert all(s is Subset(s._members) for s in carrier)


def test_carriers_are_built_without_order_keys_or_a_membership_set():
    tag = "carrier-order"  # atom labels no other test builds
    X = atoms(f"x-{tag}", f"y-{tag}")
    T = Sum(Id(), Const(atoms(f"e-{tag}")))
    carriers = [apply_obj(F, X) for F in (T, Comp(Power(), T), compose_functors(Power(), Power(), T))]
    C = carriers[-1]
    assert len(C) == 2 ** 8
    # {} and {{}} mention no atom, so an earlier build may have keyed them
    shared = {Subset(()), Subset((Subset(()),))}
    assert [e for D in carriers for e in D if key_is_set(e) and e not in shared] == []
    assert all(D._members is None for D in carriers)
    assert all(e in C for e in C)
    outsider = Subset((Subset((Inl(Atom(f"z-{tag}")),)),))
    assert outsider not in C and Atom(f"x-{tag}") not in C
    dom = atoms("d")
    assert FinFn(dom, C, {Atom("d"): C.elements[-1]})(Atom("d")) is C.elements[-1]
    with pytest.raises(ValueError, match="not in the codomain"):
        FinFn(dom, C, {Atom("d"): outsider})
