import pytest
from hypothesis import given, settings, strategies as st

from decagon.elements import (
    Atom,
    CompositionError,
    FinFn,
    FinSet,
    FnTable,
    Inl,
    Inr,
    Pair,
    Subset,
    all_functions,
    atoms,
    compose,
    element_key,
    fn_table,
    identity,
    subset,
)


def elements_strategy():
    base = st.sampled_from([Atom("a"), Atom("b"), Atom("c")])
    return st.recursive(
        base,
        lambda kids: st.one_of(
            kids.map(Inl),
            kids.map(Inr),
            st.tuples(kids, kids).map(lambda p: Pair(*p)),
            st.lists(kids, max_size=3).map(subset),
        ),
        max_leaves=6,
    )


@given(elements_strategy(), elements_strategy())
@settings(max_examples=200, deadline=None)
def test_order_trichotomy(a, b):
    ka, kb = element_key(a), element_key(b)
    assert (ka < kb) + (ka > kb) + (a == b) == 1


@given(elements_strategy(), elements_strategy(), elements_strategy())
@settings(max_examples=200, deadline=None)
def test_order_transitivity(a, b, c):
    ka, kb, kc = element_key(a), element_key(b), element_key(c)
    if ka <= kb and kb <= kc:
        assert ka <= kc


def test_subset_canonical():
    s1 = subset([Atom("b"), Atom("a"), Atom("b")])
    s2 = subset([Atom("a"), Atom("b")])
    assert s1 == s2
    assert s1.members == (Atom("a"), Atom("b"))


def test_finset_canonical_representation():
    x = FinSet([Atom("b"), Atom("a"), Atom("a")])
    y = FinSet([Atom("a"), Atom("b")])
    assert x == y and x.elements == y.elements and hash(x) == hash(y)


def test_fn_table_rejects_conflicts():
    with pytest.raises(ValueError):
        fn_table([(Atom("a"), Atom("x")), (Atom("a"), Atom("y"))])


def test_compose_identity_left_right():
    X = atoms("a", "b")
    Y = atoms("c")
    f = FinFn(X, Y, lambda _: Atom("c"))
    assert compose(f, identity(X)) == f
    assert compose(identity(Y), f) == f


def test_swap_composes_to_identity():
    X = atoms("a", "b")
    swap = FinFn(X, X, {Atom("a"): Atom("b"), Atom("b"): Atom("a")})
    assert compose(swap, swap) == identity(X)


def test_compose_boundary_mismatch():
    X, Y = atoms("a"), atoms("b")
    f = FinFn(X, Y, lambda _: Atom("b"))
    with pytest.raises(CompositionError):
        compose(f, f)


def test_all_functions_counts():
    e = FinSet()
    x2 = atoms("a", "b")
    y3 = atoms("p", "q", "r")
    assert len(all_functions(e, y3)) == 1
    assert len(all_functions(x2, e)) == 0
    fns = all_functions(x2, y3)
    assert len(fns) == 9
    assert len(set(fns)) == 9


def test_all_functions_count_matches_power():
    for nx in range(4):
        for ny in range(4):
            X = atoms(*[f"x{i}" for i in range(nx)])
            Y = atoms(*[f"y{i}" for i in range(ny)])
            assert len(all_functions(X, Y)) == len(Y) ** len(X)


def test_composition_associative_exhaustively():
    X = atoms("a")
    Y = atoms("p", "q")
    Z = atoms("u", "v")
    for f in all_functions(X, Y):
        for g in all_functions(Y, Z):
            for h in all_functions(Z, X):
                assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_fn_equal_two_builds():
    X = atoms("a", "b")
    f1 = FinFn(X, X, {Atom("a"): Atom("b"), Atom("b"): Atom("a")})
    f2 = FinFn(X, X, [(Atom("b"), Atom("a")), (Atom("a"), Atom("b"))])
    assert f1 == f2
    assert f1 != identity(X)
