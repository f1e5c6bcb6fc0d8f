"""Natural transformations as per-object component builders.

A ``NatTrans`` carries its boundary functors and a rule that, given an
object, yields the component as a function on elements.  Built-in families
(units, multiplications, strengths, distributive-law components) are
object-independent formulas, so they can be evaluated pointwise at
arbitrarily deep carriers.  Tabulated families (search candidates,
operators recovered from extension data) know their components only on a
small universe; they transport along the canonical order-preserving
bijection to same-size objects and raise ``ComponentUnavailable`` beyond
that, a ``report.Refused`` that exhaustive checkers count as a skipped
instance.  A ``derived`` family is a path of whiskered ``Step``s, run by
``compiled_path`` like every composite the checkers evaluate.  A
``per_member`` family is a union over the members of one marked subset of
its input; no family is built any other way than by these four.

A family's ``linear`` marks are factors of its source at which it splits
unions: in each subset there (one behind one-position factors, one per
member behind a P), into the subset at the head of its target, so that it
is fixed by its values on the empty set and the singletons there.  They
come only from construction: ``per_member`` sets them, the P inside its
marked one too when each member is its own share (P's multiplication),
and ``derived`` reads its mark off its steps with ``carry_mark``.  A
``formula`` or ``tabulated`` family has none.  ``extension`` reads its
family's marks to record, on the operator it builds, which unions the
operator preserves (``Extension``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .elements import Element, FinFn, FinSet, Inl, Inr, Pair, Subset
from .functors import (
    FunctorExpr,
    Id,
    OversizeCarrier,
    Power,
    Prod,
    apply_mor,
    apply_obj,
    compiled_action,
    compose_functors,
    factors,
    marked_power,
)
from .report import DEFAULT_CARRIER_CAP, Refused

ComponentRule = Callable[[FinSet], Callable[[Element], Element]]


class ComponentUnavailable(Refused):
    """A component was requested at an object where it is not defined."""


@dataclass
class NatTrans:
    """Transformation src => tgt given by a component rule."""

    src: FunctorExpr
    tgt: FunctorExpr
    rule: ComponentRule
    name: str = ""
    needs_object: bool = False
    tabulated_objects: Optional[list[FinSet]] = None
    linear: frozenset = frozenset()

    def component(self, X: FinSet) -> FinFn:
        """Materialised component table at X; ``OversizeCarrier`` before
        anything is built when a boundary exceeds ``DEFAULT_CARRIER_CAP``."""
        dom = apply_obj(self.src, X)
        cod = apply_obj(self.tgt, X)
        fn = self.rule(X)
        return FinFn._raw(dom, cod, {e: fn(e) for e in dom.elements})


def formula(src: FunctorExpr, tgt: FunctorExpr, fn: Callable[[Element], Element], name: str = "") -> NatTrans:
    """Object-independent component family given by one element formula."""
    return NatTrans(src, tgt, lambda X: fn, name=name)


def identity_nat(F: FunctorExpr, name: str = "id") -> NatTrans:
    return formula(F, F, lambda e: e, name=name)


def _canonical_iso(W: FinSet, V: FinSet) -> FinFn:
    """Order-preserving bijection between same-size carriers."""
    if len(W) != len(V):
        raise ComponentUnavailable(f"no canonical bijection {len(W)} -> {len(V)}")
    return FinFn._raw(W, V, dict(zip(W.elements, V.elements)))


def tabulated(
    src: FunctorExpr,
    tgt: FunctorExpr,
    tables: dict[FinSet, FinFn],
    name: str = "",
) -> NatTrans:
    """Family given by explicit tables on a few objects.

    At any other object of matching size the component is transported along
    the canonical bijection; a natural family is invariant under this choice
    because permutations of the tabulated objects were checked already.
    """
    by_size: dict[int, tuple[FinSet, FinFn]] = {len(X): (X, t) for X, t in tables.items()}

    def rule(X: FinSet) -> Callable[[Element], Element]:
        direct = tables.get(X)
        if direct is not None:
            return direct
        hit = by_size.get(len(X))
        if hit is None:
            raise ComponentUnavailable(f"{name or 'tabulated family'} has no component at size {len(X)}")
        base, table = hit
        iso = _canonical_iso(X, base)
        inv = _canonical_iso(base, X)
        fwd = apply_mor(src, iso)
        back = apply_mor(tgt, inv)
        return lambda e: back(table(fwd(e)))

    return NatTrans(src, tgt, rule, name=name, needs_object=True,
                    tabulated_objects=list(tables))


@dataclass(frozen=True)
class Step:
    """One whiskered component in a composite: prefix . nt . suffix."""

    prefix: FunctorExpr
    nt: NatTrans
    suffix: FunctorExpr


def step_source(s: Step) -> FunctorExpr:
    return compose_functors(s.prefix, s.nt.src, s.suffix)


def compiled_step(s: Step, X: FinSet, cap: int) -> Callable[[Element], Element]:
    """The element action of one whiskered component at X: its family's
    rule at s's suffix at X if the family needs its object, else at X.

    Raises ``OversizeCarrier`` when a tabulated component's object would
    exceed ``cap`` and ``ComponentUnavailable`` when it is missing.
    """
    Y = apply_obj(s.suffix, X, cap) if s.nt.needs_object else X
    return compiled_action(s.prefix, s.nt.rule(Y))


def compiled_path(steps: Sequence[Step], X: FinSet, cap: int) -> Callable[[Element], Element]:
    """The composite of ``steps`` at X as an element action: each step is
    compiled once, and an element is pushed through them in order."""
    fns = [compiled_step(s, X, cap) for s in steps]

    def run(e: Element) -> Element:
        for fn in fns:
            e = fn(e)
        return e

    return run


def carry_mark(steps: Sequence[Step], mark: int) -> Optional[int]:
    """The factor the marked subset at factor ``mark`` of the steps' source
    sits at after them, or None when a step may not preserve its unions.

    A step whose prefix covers the mark acts under it by a direct image,
    which preserves unions whatever its family.  A step that reaches the
    mark must be a family linear at it, which moves the mark to the head of
    its target, the end of the step's prefix.  Any other step, one that
    acts in front of the mark or reaches it with no ``linear`` mark there,
    fails.
    """
    for s in steps:
        at = len(factors(s.prefix))
        if mark < at:
            continue
        if mark - at not in s.nt.linear:
            return None
        mark = at
    return mark


def per_member(src: FunctorExpr, tgt: FunctorExpr,
               rule: Optional[Callable[[Element], Element]] = None, name: str = "") -> NatTrans:
    """Family whose value at an element is the union, over the members a
    of the subset at its marked factor (``functors.marked_power``, at most
    one factor deep), of ``rule`` at the element with {a} in that subset's
    place; an element with no subset there (inr e) goes to ``rule`` as it
    is.  ``rule`` returns a subset.  The family preserves unions in the
    marked subset by construction, so this is the one constructor that
    sets ``linear``.  With no ``rule`` the marked subset is the head of
    ``src`` and its members are subsets, each its own share: the family is
    the union of the members (P's multiplication), which splits unions in
    each member too, so it is also linear at the P inside the marked one.
    Each member's share is computed once per component, as
    ``compiled_action``'s memos keep theirs."""
    at = marked_power(src)
    fs = factors(src)
    if at is None or at > 1 or marked_power(tgt) != 0 or rule is None and (
            at or fs[1:2] != [Power()]):
        raise ValueError(f"{name or 'family'}: {src!r} -> {tgt!r} has no marked subset "
                         "to take members of")
    open_, put = _hole(fs[0] if at else None)

    def rule_at(X: FinSet) -> Callable[[Element], Element]:
        shares: dict = {}  # context -> member -> the members of its share

        def fn(e: Element) -> Element:
            hole = open_(e)
            if hole is None:
                return rule(e)
            S, c = hole
            row = shares.get(c)
            if row is None:
                row = shares[c] = {}
            out = []
            for a in S._members:
                share = row.get(a)
                if share is None:
                    share = row[a] = (a if rule is None else rule(put(c, Subset((a,)))))._members
                out += share
            return Subset(out)

        return fn

    return NatTrans(src, tgt, rule_at, name=name,
                    linear=frozenset({at, at + 1} if rule is None else {at}))


def _hole(F: Optional[FunctorExpr]):
    """For the one-position factor F in front of a marked subset, or None
    for none: the map from an element to its subset there and the context
    around it (None when it holds none), and the map putting a subset back
    into a context."""
    if F is None:
        return (lambda e: (e, None)), (lambda c, v: v)
    if isinstance(F, Prod):
        if isinstance(F.right, Id):
            return (lambda e: (e.snd, e.fst)), Pair
        return (lambda e: (e.fst, e.snd)), (lambda c, v: Pair(v, c))
    tag = Inl if isinstance(F.left, Id) else Inr
    return (lambda e: (e.value, None) if type(e) is tag else None), (lambda c, v: tag(v))


def derived(src: FunctorExpr, tgt: FunctorExpr, name: str, *steps: Step) -> NatTrans:
    """Family whose component at X is the path ``steps`` from src to tgt,
    under the default carrier cap; it needs its object when a step's family
    does, is tabulated where they are, and is linear at src's marked factor
    when ``carry_mark`` takes that to the head of tgt."""
    families = [s.nt for s in steps]
    at = marked_power(src)
    objects = [X for nt in families for X in nt.tabulated_objects or ()]
    return NatTrans(src, tgt, lambda X: compiled_path(steps, X, DEFAULT_CARRIER_CAP), name=name,
                    needs_object=any(nt.needs_object for nt in families),
                    tabulated_objects=list(dict.fromkeys(objects)) or None,
                    linear=frozenset({at} if at is not None and carry_mark(steps, at) == 0
                                     else ()))


def composite_map(
    steps: Sequence[Step], X: FinSet, cap: int
) -> dict[Element, Element]:
    """Evaluate a composite of whiskered components pointwise at X.

    Only the source carrier is enumerated; every element is pushed through
    the compiled path.  Raises ``OversizeCarrier`` when the source carrier
    would exceed ``cap`` and ``ComponentUnavailable`` when a tabulated
    component is missing.
    """
    if not steps:
        raise ValueError("empty composite")
    dom = apply_obj(step_source(steps[0]), X, cap)
    fn = compiled_path(steps, X, cap)
    return {e: fn(e) for e in dom.elements}


def check_naturality(
    nt: NatTrans, morphisms: Iterable[FinFn]
) -> Optional[tuple[FinFn, Element]]:
    """First naturality failure of nt against the given morphisms, if any:
    the morphism f: X -> Y and the first element x of F(X), in its order,
    where G(f)(nt_X(x)) and nt_Y(F(f)(x)) differ.  A square whose component
    refuses (``report.Refused``) is skipped."""
    for f in morphisms:
        try:
            am = nt.component(f.dom)._map
            bm = nt.component(f.cod)._map
        except Refused:
            continue
        src_f = apply_mor(nt.src, f)
        sm, tm = src_f._map, apply_mor(nt.tgt, f)._map
        for x in src_f.dom.elements:
            if tm[am[x]] is not bm[sm[x]]:
                return (f, x)
    return None


@dataclass(frozen=True)
class Extension:
    """An extension operator f |-> c_Y . T(f), built by ``extension``, with
    what its construction shows about unions.

    ``linear_in_values``: the operator preserves (nonempty) unions in each
    value of its argument f, so an equation built from it may range f over
    its maps whose values are the empty set or singletons
    (``report.quantify``).
    ``joins``: each ext(f) preserves unions in its input.  A user's
    operator is a plain callable and shows neither.
    """

    run: Callable[[FinFn], FinFn]
    linear_in_values: bool = False
    joins: bool = False

    def __call__(self, f: FinFn) -> FinFn:
        return self.run(f)


def extension(c: NatTrans, T: FunctorExpr) -> Extension:
    """The extension operator of a family c: T F => F, F its target:
    f: X -> F(Y) goes to c_Y after T(f): T(X) -> F(Y).

    A formula component ignores the object, so one is built and shared; a
    tabulated one is located at the Y among c's tabulated objects with
    F(Y) = f.cod.  Each component is built once and kept for the lifetime
    of the operator, so the memo of its compiled action is reused.

    The operator is ``linear_in_values`` when c is linear at the P just
    behind T's factors, where T(f) puts the values f(x): c splits unions in
    each member there, whether T's factors are one-position and hold one
    value (a registered law's alpha) or T is P and each member of its
    subset is a value (P's own multiplication).  Each ext(f) ``joins``
    when T's head factor is P and c is linear at it: T(f) is a direct image
    there, which preserves unions, and so does c (P's multiplication).
    """
    memo: dict = {}

    def ext(f: FinFn) -> FinFn:
        key = f.cod if c.needs_object else None
        c_fn = memo.get(key)
        if c_fn is None:
            found = (Y for Y in c.tabulated_objects or () if apply_obj(c.tgt, Y) == f.cod)
            Y = next(found, None) if c.needs_object else f.dom
            if Y is None:
                raise ComponentUnavailable(
                    f"{c.name or 'family'} has no component at Y with {c.tgt!r}(Y) = {f.cod!r}")
            c_fn = memo[key] = c.rule(Y)
        tf = compiled_action(T, f)
        dom = apply_obj(T, f.dom)
        return FinFn._raw(dom, f.cod, {e: c_fn(tf(e)) for e in dom.elements})

    fs = factors(T)
    return Extension(ext, linear_in_values=len(fs) in c.linear,
                     joins=0 in c.linear and bool(fs) and isinstance(fs[0], Power))
