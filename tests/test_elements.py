import itertools
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from decagon.elements import (
    Atom,
    CompositionError,
    Element,
    FinFn,
    FinSet,
    FnTable,
    Inl,
    Inr,
    Pair,
    Subset,
    _KEY_CACHE,
    _ORDER_KEYS,
    _PAIRS,
    all_functions,
    atoms,
    compose,
    element_key,
    element_repr,
    fn_table,
    identity,
    subset,
)
from decagon.distlaw import _strength
from decagon.functors import Const, Exp, Id, Power, Prod, Sum, apply_elem, apply_obj
from decagon.monads import GROUP_Z2, builtin_monads


def elements_strategy():
    base = st.sampled_from([Atom("a"), Atom("b"), Atom("c")])
    return st.recursive(
        base,
        lambda kids: st.one_of(
            kids.map(Inl),
            kids.map(Inr),
            st.tuples(kids, kids).map(lambda p: Pair(*p)),
            st.lists(kids, max_size=3).map(subset),
            st.dictionaries(kids, kids, max_size=2).map(lambda d: fn_table(d.items())),
        ),
        max_leaves=6,
    )


def reference_key(e):
    """The order key recomputed recursively from the structure, without
    the memo; a subset's member keys are sorted here, so no order the
    implementation keeps is trusted."""
    if type(e) is Atom:
        return (0, e.label)
    if type(e) is Inl:
        return (1, reference_key(e.value))
    if type(e) is Inr:
        return (2, reference_key(e.value))
    if type(e) is Pair:
        return (3, reference_key(e.fst), reference_key(e.snd))
    if type(e) is Subset:
        return (4, tuple(sorted(reference_key(m) for m in e.members)))
    if type(e) is FnTable:
        return (5, tuple((reference_key(a), reference_key(b)) for a, b in e.entries))
    raise TypeError(f"not an Element: {e!r}")


def rebuild(e):
    """A fresh construction of the same structure, from the leaves up."""
    if type(e) is Atom:
        return Atom("".join(e.label))
    if type(e) in (Inl, Inr):
        return type(e)(rebuild(e.value))
    if type(e) is Pair:
        return Pair(rebuild(e.fst), rebuild(e.snd))
    if type(e) is Subset:
        return subset(rebuild(m) for m in reversed(e.members))
    return fn_table((rebuild(a), rebuild(b)) for a, b in reversed(e.entries))


@given(st.lists(elements_strategy(), max_size=6))
@settings(max_examples=200, deadline=None)
def test_slot_key_matches_reference_key(es):
    for e in es:
        assert element_key(e) == reference_key(e)
    assert sorted(es, key=element_key) == sorted(es, key=reference_key)


@given(elements_strategy())
@settings(max_examples=200, deadline=None)
def test_equal_structures_are_one_object(e):
    assert rebuild(e) is e


def test_two_builds_are_identical():
    def build():
        return Pair(Atom("a"), subset([Inl(Atom("c")), Atom("b"), Atom("b")]))

    assert build() is build()
    assert FnTable(((Atom("a"), Atom("b")),)) is fn_table([(Atom("a"), Atom("b"))])
    assert Inl(Atom("a")) is not Inr(Atom("a"))


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


@given(st.permutations([0, 1, 2]), st.lists(st.sampled_from("abc"), min_size=3, max_size=3))
def test_fn_table_order_does_not_reach_equality_hash_or_pairs(order, values):
    X = atoms("a", "b", "c")
    entries = [(X.elements[i], Atom(values[i])) for i in range(3)]
    built = FinFn(X, X, [entries[i] for i in order])
    raw = FinFn._raw(X, X, dict(reversed(entries)))
    assert built == raw and hash(built) == hash(raw)
    assert built.pairs == raw.pairs == tuple(entries)
    wider = FinFn(X, atoms("a", "b", "c", "d"), entries)
    assert wider != built and wider.pairs == built.pairs


def key_is_set(e):
    """Whether the order key of ``e`` is in the memo, read without
    computing it."""
    return e in _ORDER_KEYS


def _parts(e):
    """The element and every element inside it."""
    yield e
    if type(e) in (Inl, Inr):
        yield from _parts(e.value)
    elif type(e) is Pair:
        yield from _parts(e.fst)
        yield from _parts(e.snd)
    elif type(e) is Subset:
        for m in e.members:
            yield from _parts(m)
    elif type(e) is FnTable:
        for k, v in e.entries:
            yield from _parts(k)
            yield from _parts(v)


def test_elements_print_as_witnesses_show_them():
    carrier = apply_obj(Sum(Prod(Id(), Power()), Exp(atoms("r"))), atoms("a", "b"))
    parts = [p for e in carrier for p in _parts(e)]
    assert {type(p) for p in parts} == {Atom, Inl, Inr, Pair, Subset, FnTable}
    for p in parts:
        assert repr(p) == element_repr(p)
    assert repr(Inl(Pair(Atom("a"), subset([Atom("b")])))) == "inl((a,{b}))"


def test_no_element_class_keeps_an_order_key_slot():
    classes = [Element, *Element.__subclasses__()]
    assert {Atom, Inl, Inr, Pair, Subset, FnTable} <= set(classes)
    assert Element.__slots__ == ()
    assert [c.__name__ for c in classes if "_key" in c.__dict__.get("__slots__", ())] == []
    assert not any(hasattr(e, "__dict__") for e in (Atom("a"), Pair(Atom("a"), Atom("b"))))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_subset_is_one_object_for_every_member_order(data):
    xs = data.draw(st.lists(elements_strategy(), unique=True, max_size=4))
    perm = data.draw(st.permutations(xs))
    chosen = perm[:data.draw(st.integers(0, len(xs)))]
    s = subset(chosen)
    assert s is Subset(tuple(chosen)) is subset(chosen[::-1] + chosen)
    assert [t for t in apply_obj(Power(), FinSet(xs)) if t is s] == [s]
    assert s.members == tuple(sorted(chosen, key=reference_key))
    assert element_key(s) == reference_key(s)


_fresh = itertools.count()


@given(elements_strategy(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_key_is_computed_on_demand_after_membership(e, member_first):
    member = Pair(Atom(f"fresh{next(_fresh)}"), e)  # never built before
    outer = subset([Inl(member), e])
    assert not key_is_set(member) and not key_is_set(outer)
    if member_first:
        assert element_key(member) == reference_key(member)
    assert element_key(outer) == reference_key(outer)
    assert key_is_set(member) and element_key(member) == reference_key(member)
    assert outer.members == tuple(sorted((Inl(member), e), key=reference_key))


def _intern_entries():
    """Entries of the intern tables: ``_KEY_CACHE`` and the pair table."""
    return len(_KEY_CACHE) + sum(map(len, _PAIRS.values()))


@given(elements_strategy(), elements_strategy())
@settings(max_examples=200, deadline=None)
def test_intern_keys_of_different_constructors_never_meet(x, y):
    # a subset is interned on its member tuple and an Inl on its value,
    # beside tag-led tuples, and a pair in its own table; no key of one
    # shape may find another's element
    x = Pair(Atom(f"fresh{next(_fresh)}"), x)  # so every structure below is new
    empty = Subset(())
    builds = [lambda: Inl(x), lambda: Inr(x), lambda: Subset((x,)), lambda: Subset((x, y)),
              lambda: Pair(x, y), lambda: Subset(()), lambda: FnTable(((x, y),))]
    built = []
    for build in builds:
        size = _intern_entries()
        e = build()
        assert _intern_entries() == size + (e is not empty)
        built.append(e)
    assert len({id(e) for e in built}) == len(builds)
    assert [type(e) for e in built] == [Inl, Inr, Subset, Subset, Pair, Subset, FnTable]
    assert all(rebuild(e) is e for e in built)


_WRITER, _COREADER = builtin_monads()["writer"], builtin_monads()["coreader"]
_MONOID = GROUP_Z2.elems  # the writer monad's monoid


def _pair_routes(label, x):
    """Pair(Atom(label), x) as each part of the library builds it."""
    a, X = Atom(label), FinSet([x])
    M = FinSet(Atom(l) for l in _MONOID)
    writer_u, writer_m = _WRITER.unit.rule(X), _WRITER.mult.rule(X)
    return [
        Pair(a, x),
        next(p for p in apply_obj(Prod(Const(M), Id()), X) if p.fst is a),
        apply_elem(Prod(Const(M), Id()), lambda _: x, Pair(a, Atom("y"))),
        *_strength(Pair(a, Subset((x,))))._members,
        writer_m(Pair(a, writer_u(x))),
        _COREADER.comult.rule(X)(Pair(a, x)).snd,
    ]


@given(st.sampled_from(_MONOID), elements_strategy(), st.sampled_from(_MONOID), elements_strategy())
@settings(max_examples=200, deadline=None)
def test_every_route_to_a_pair_gives_the_one_interned_pair(a, x, b, y):
    ps, qs = _pair_routes(a, x), _pair_routes(b, y)
    p, q = _PAIRS[Atom(a)][x], _PAIRS[Atom(b)][y]
    assert [r for r in ps if r is not p] == []
    assert [r for r in qs if r is not q] == []
    assert (p is q) == (a == b and x is y)
    assert (p.fst, p.snd) == (Atom(a), x)


# Interns the atoms and the singletons in the order given on the command
# line, so that the intern order differs between runs; prints the intern
# order, then every element of PP({a,b}) and TPT({a,b}) and the witness of
# the size-sensitive decagon mutant.
_PRINT_CARRIERS = textwrap.dedent("""
    import json, sys
    from decagon import *
    from decagon.elements import element_repr
    order = [Atom(l) for l in sys.argv[1]]
    for a in order:
        subset([a])
    print([m.label for m in subset(order)._members])
    X = atoms("a", "b")
    T = builtin_monads()["exception"].functor
    for F in (compose_functors(Power(), Power()), compose_functors(T, Power(), T)):
        print(" ".join(element_repr(e) for e in apply_obj(F, X)))
    good = builtin_laws()["exception-over-powerset"]

    def lam(e):
        if type(e) is Inl:
            img = [Inl(x) for x in e.value.members]
            if len(img) == 1:
                img.append(Inr(Atom("e")))
            return subset(img)
        return Subset((e,))

    bad = DistLaw("size-sensitive", good.T, good.P,
                  formula(good.lam.src, good.lam.tgt, lam, "size-sensitive"))
    print(json.dumps(check_decagon(bad, TestUniverse.sizes(2)).as_dict(), sort_keys=True))
""")


def test_intern_order_never_reaches_output():
    outs = []
    for order, seed in (("ab", "1"), ("ba", "2")):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", _PRINT_CARRIERS, order], env=env,
                              capture_output=True, text=True, check=True)
        outs.append(proc.stdout.split("\n", 1))
    (order1, out1), (order2, out2) = outs
    assert order1 != order2  # the two runs did intern in different orders
    assert out1 == out2
    assert "{{a,b}}" in out1 and '"passed": false' in out1 and '"witness"' in out1
