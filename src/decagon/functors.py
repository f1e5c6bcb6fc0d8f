"""A closed grammar of finitary endofunctors on finite sets.

Grammar: Id | Const(A) | Sum(F,G) | Prod(F,G) | Power | Exp(R) | Comp(F,G).
Power is the covariant finite powerset (direct image on morphisms); Exp(R)
is X -> X^R with postcomposition.  Comp(F,G) applies G first: it sends X to
F(G(X)).

The one element action is ``compiled_action``: it turns F and f into a
tree of memo dicts, one per node of F, that pushes single elements through
F(f) without ever materialising intermediate carriers.  Each node is a
``dict`` whose ``__missing__`` computes a new result from its children, so
its bound ``__getitem__`` is the action and a repeated element runs no
Python frame.  Deeply iterated words (powersets of powersets) are only
tractable pointwise, so every checker in this package is built on it, and
the table-level ``apply_mor`` is one compiled action run over the domain.

The one carrier builder is ``apply_obj``: it decides the carrier cap, and
refuses a carrier over it before building anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Union

from .elements import (
    Element,
    FinFn,
    FinSet,
    FnTable,
    Inl,
    Inr,
    Pair,
    Subset,
)
from .report import DEFAULT_CARRIER_CAP, Refused


@dataclass(frozen=True)
class Id:
    def __repr__(self):
        return "Id"


@dataclass(frozen=True)
class Const:
    value: FinSet

    def __repr__(self):
        return f"Const({len(self.value)})"


@dataclass(frozen=True)
class Sum:
    left: "FunctorExpr"
    right: "FunctorExpr"

    def __repr__(self):
        return f"Sum({self.left!r},{self.right!r})"


@dataclass(frozen=True)
class Prod:
    left: "FunctorExpr"
    right: "FunctorExpr"

    def __repr__(self):
        return f"Prod({self.left!r},{self.right!r})"


@dataclass(frozen=True)
class Power:
    def __repr__(self):
        return "Power"


@dataclass(frozen=True)
class Exp:
    exponent: FinSet

    def __repr__(self):
        return f"Exp({len(self.exponent)})"


@dataclass(frozen=True)
class Comp:
    outer: "FunctorExpr"
    inner: "FunctorExpr"

    def __repr__(self):
        return f"Comp({self.outer!r},{self.inner!r})"


FunctorExpr = Union[Id, Const, Sum, Prod, Power, Exp, Comp]


class OversizeCarrier(Refused):
    """A composite evaluation would need a carrier above the configured cap."""


# (F, X, cap) -> F(X); the cap is part of the key, so a carrier built under
# one cap is never handed out under a lower one
_OBJ_CACHE: dict[tuple[FunctorExpr, FinSet, int], FinSet] = {}


def apply_obj(F: FunctorExpr, X: FinSet, cap: int = DEFAULT_CARRIER_CAP) -> FinSet:
    """Carrier of F at X, fully materialised and canonically ordered, or
    ``OversizeCarrier`` before anything is built when it, or a carrier
    built on the way, would exceed ``cap`` (``size_within``)."""
    key = (F, X, cap)
    out = _OBJ_CACHE.get(key)
    if out is None:
        if size_within(F, len(X), cap) > cap:
            raise OversizeCarrier(f"carrier exceeds cap {cap}")
        out = _OBJ_CACHE[key] = _carrier(F, X)
    return out


def _carrier(F: FunctorExpr, X: FinSet) -> FinSet:
    """F(X), uncapped.  Each constructor lists its elements in the
    structural order already, given X in that order, so the carrier is
    built without order keys."""
    if isinstance(F, Id):
        return X
    if isinstance(F, Const):
        return F.value
    if isinstance(F, Sum):
        L, R = _carrier(F.left, X), _carrier(F.right, X)
        return FinSet._raw(tuple([Inl(e) for e in L] + [Inr(e) for e in R]))
    if isinstance(F, Prod):
        L, R = _carrier(F.left, X), _carrier(F.right, X)
        return FinSet._raw(tuple(Pair(a, b) for a in L for b in R))
    if isinstance(F, Power):
        # tuples[mask]: the members whose bits are set in mask, over X in
        # intern order (by id), lowest bit first, so already in intern order
        by_id = sorted(X.elements, key=id)
        tuples = [()]
        for x in by_id:
            tuples += [t + (x,) for t in tuples]
        bit = {x: 1 << i for i, x in enumerate(by_id)}
        # masks in the lexicographic order of X, each prefix first
        masks = [0]
        for x in reversed(X.elements):
            b = bit[x]
            masks = [0] + [b | m for m in masks] + masks[1:]
        return FinSet._raw(tuple([Subset._raw(tuples[m]) for m in masks]))
    if isinstance(F, Exp):
        rs = F.exponent.elements
        return FinSet._raw(tuple(
            FnTable(tuple(zip(rs, values))) for values in product(X.elements, repeat=len(rs))
        ))
    if isinstance(F, Comp):
        return _carrier(F.outer, _carrier(F.inner, X))
    raise TypeError(f"not a FunctorExpr: {F!r}")


def apply_elem(F: FunctorExpr, fn: Callable[[Element], Element], e: Element) -> Element:
    """Push one element of F(X) through F(f), where fn is f on elements."""
    return compiled_action(F, fn)(e)


class _Memo(dict):
    """One node of a compiled action: a memo dict whose bound
    ``__getitem__`` is the action, so a hit runs no Python frame; a miss
    computes the result with ``step`` and keeps it."""

    __slots__ = ("step",)

    def __init__(self, step: Callable[[Element], Element]):
        self.step = step

    def __missing__(self, e):
        out = self[e] = self.step(e)
        return out


def compiled_action(F: FunctorExpr, fn: Callable[[Element], Element]) -> Callable[[Element], Element]:
    """F(f) as a tree of memo dicts, one per node, over one memo of fn.

    fn is called once per distinct element, at the ``Id`` leaves, which
    share one memo; every other node keeps its own results.  Nested
    carriers share members heavily, so the memos cut deep evaluations by
    orders of magnitude, and a new tree per call keeps results from
    different component functions apart.
    """
    return _action(F, _Memo(fn).__getitem__)


def _action(F: FunctorExpr, leaf: Callable[[Element], Element]) -> Callable[[Element], Element]:
    """The action of F over ``leaf``, an action that memoises itself."""
    if isinstance(F, Id):
        return leaf
    if isinstance(F, Const):
        return lambda e: e
    if isinstance(F, Comp):
        return _action(F.outer, _action(F.inner, leaf))
    if isinstance(F, Sum):
        lf, rf = _action(F.left, leaf), _action(F.right, leaf)
        step = lambda e: Inl(lf(e.value)) if type(e) is Inl else Inr(rf(e.value))
    elif isinstance(F, Prod):
        ff, sf = _action(F.left, leaf), _action(F.right, leaf)
        step = lambda e: Pair(ff(e.fst), sf(e.snd))
    elif isinstance(F, Power):
        step = lambda e: Subset(map(leaf, e._members))
    elif isinstance(F, Exp):
        step = lambda e: FnTable(tuple([(k, leaf(v)) for k, v in e.entries]))
    else:
        raise TypeError(f"not a FunctorExpr: {F!r}")
    return _Memo(step).__getitem__


def apply_mor(F: FunctorExpr, f: FinFn) -> FinFn:
    """Full table of F(f); boundaries are F applied to f's boundaries, and
    ``OversizeCarrier`` is raised before either is built when one would
    exceed ``DEFAULT_CARRIER_CAP``."""
    dom = apply_obj(F, f.dom)
    cod = apply_obj(F, f.cod)
    act = compiled_action(F, f)
    return FinFn._raw(dom, cod, {e: act(e) for e in dom.elements})


def size_within(F: FunctorExpr, n: int, cap: int) -> int:
    """|F(X)| saturated at cap + 1, without forming huge exponentials.

    All grammar constructors are monotone in the carrier size, so
    propagating the saturation value stays sound: the result is exact
    whenever it is at most cap.  It is also cap + 1 when a carrier that
    ``apply_obj`` builds on the way, a factor of a product or the inner
    carrier of a composite, exceeds cap although F(X) does not (a
    constant outer functor or an empty factor collapses it), so a guard
    on the result bounds the whole build.  ``Id`` and ``Const`` build
    nothing: their carriers are given.
    """
    clamp = cap + 1
    n = min(n, clamp)
    if isinstance(F, Id):
        return n
    if isinstance(F, Const):
        return min(len(F.value), clamp)
    if isinstance(F, Sum):
        return min(size_within(F.left, n, cap) + size_within(F.right, n, cap), clamp)
    if isinstance(F, Prod):
        left, right = size_within(F.left, n, cap), size_within(F.right, n, cap)
        if max(_built(F.left, left), _built(F.right, right)) > cap:
            return clamp
        return min(left * right, clamp)
    if isinstance(F, Power):
        if n > clamp.bit_length():
            return clamp
        return min(2 ** n, clamp)
    if isinstance(F, Exp):
        out = 1
        for _ in range(len(F.exponent)):
            out = min(out * n, clamp)
            if out >= clamp:
                break
        return out
    if isinstance(F, Comp):
        inner = size_within(F.inner, n, cap)
        if _built(F.inner, inner) > cap:
            return clamp
        return size_within(F.outer, inner, cap)
    raise TypeError(f"not a FunctorExpr: {F!r}")


def _built(F: FunctorExpr, size: int) -> int:
    """``size`` if ``apply_obj`` builds F's carrier, 0 if it is given."""
    return 0 if isinstance(F, (Id, Const)) else size


def compose_functors(*fs: FunctorExpr) -> FunctorExpr:
    """Right-nested composite, Id units stripped: compose(T,P)(X) = T(P(X))."""
    acc: FunctorExpr | None = None
    for F in reversed(fs):
        if isinstance(F, Id):
            continue
        acc = F if acc is None else Comp(F, acc)
    return acc if acc is not None else Id()


def factors(F: FunctorExpr) -> list[FunctorExpr]:
    """F's factors that are not composites, outermost first; Id has none."""
    if isinstance(F, Comp):
        return factors(F.outer) + factors(F.inner)
    return [] if isinstance(F, Id) else [F]


def marked_power(F: FunctorExpr) -> int | None:
    """The position among F's factors of its first ``Power`` when every
    factor before it is a one-position context (X + C, C + X, C x X or
    X x C), so that an element holds at most one subset there; else None."""
    for i, G in enumerate(factors(F)):
        if isinstance(G, Power):
            return i
        if not (isinstance(G, (Sum, Prod)) and {type(G.left), type(G.right)} == {Id, Const}):
            return None
    return None
