"""Monads on finite sets in monoidal and extensive form.

The monoidal form is an endofunctor with unit and multiplication subject to
two unit laws and associativity; the extensive (Kleisli triple) form is an
object map, a unit family and an extension operator subject to three
equations quantified over morphisms.  Converters translate between the
two, and ``kleisli`` builds the Kleisli category of an extensive monad.

Monads come from a built-in registry (identity, maybe, exception, writer,
reader, finite powerset) parameterized by finite data, so that the functor
grammar stays closed under iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Iterable, Optional

from .elements import (
    Atom,
    Element,
    FinFn,
    FinSet,
    FnTable,
    Inl,
    Pair,
    Subset,
    atoms,
    compose,
    identity,
)
from .functors import (
    Const,
    Exp,
    FunctorExpr,
    Id,
    Power,
    Prod,
    Sum,
    apply_obj,
    compose_functors,
)
from .pasting.builtin import builtin_signature, mixed_signature
from .pasting.evaluate import Interpretation, check_cells
from .report import LawReport, TestUniverse, compare, instances, quantify
from .transforms import (
    NatTrans,
    extension,
    formula,
    identity_nat,
    tabulated,
)


@dataclass
class MonadMonoidal:
    name: str
    functor: FunctorExpr
    unit: NatTrans
    mult: NatTrans


@dataclass
class ComonadMonoidal:
    name: str
    functor: FunctorExpr
    counit: NatTrans
    comult: NatTrans


@dataclass
class Category:
    """Ambient-category interface: homs as FinFns with a chosen composition.

    A morphism X -> Y is a function X -> ``obj(Y)`` as a concrete table (for
    a Kleisli category, a function into P applied to the target).
    """

    name: str
    obj: Callable[[FinSet], FinSet]
    compose: Callable[[FinFn, FinFn], FinFn]
    identity: Callable[[FinSet], FinFn]


def _finset_compose(g: FinFn, f: FinFn) -> FinFn:
    """Composition in FinSet.  ``compose`` is looked up on each call, so a
    rebinding of this module's name, such as the benchmark tracer's
    counter, sees every composition of the base category."""
    return compose(g, f)


BASE_CATEGORY = Category("finset", lambda X: X, _finset_compose, identity)


@dataclass
class MonadExtensive:
    """Kleisli-triple presentation: object map, unit family, extension."""

    name: str
    obj: Callable[[FinSet], FinSet]
    unit_at: Callable[[FinSet], FinFn]
    ext: Callable[[FinFn], FinFn]
    ambient: Category = field(default_factory=lambda: BASE_CATEGORY)


# ---------------------------------------------------------------------------
# law checkers
#
# The monoidal forms evaluate cells of the shipped signatures: the monad
# interprets T of the built-in signature, the comonad L of the mixed one.

MONAD_CELLS = {"unit-left": "unit-l-T", "unit-right": "unit-r-T", "associativity": "assoc-T"}
COMONAD_CELLS = {"counit-left": "counit-l-L", "counit-right": "counit-r-L",
                 "coassociativity": "coassoc-L"}


def check_monad_monoidal(M: MonadMonoidal, universe: TestUniverse) -> LawReport:
    """Two unit triangles and associativity, evaluated exhaustively."""
    interp = Interpretation(M.name, {"T": M.functor}, {"u": M.unit, "m": M.mult})
    return check_cells(f"monad:{M.name}", MONAD_CELLS, interp, universe, builtin_signature())


def check_comonad(C: ComonadMonoidal, universe: TestUniverse) -> LawReport:
    """Two counit triangles and coassociativity, evaluated exhaustively."""
    interp = Interpretation(C.name, {"L": C.functor}, {"epsilon": C.counit, "delta": C.comult})
    return check_cells(f"comonad:{C.name}", COMONAD_CELLS, interp, universe, mixed_signature())


def check_monad_extensive(M: MonadExtensive, universe: TestUniverse) -> LawReport:
    """The three Kleisli-triple equations, quantified over ambient homs.

    Each distinct morphism is extended once per call; an instance that
    refuses, such as one that needs an unavailable component, is skipped."""
    amb = M.ambient
    ext = cache(M.ext)

    def hom(X: FinSet, Y: FinSet) -> tuple[FinSet, FinSet]:
        return X, amb.obj(M.obj(Y))

    def extension_unit():
        for (X, Y), fs in quantify(universe, "XY", lambda X, Y: [hom(X, Y)]):
            uX = M.unit_at(X)
            yield from instances(f"f:{len(X)}->{len(Y)}", fs,
                                 lambda f: (amb.compose(ext(f), uX), f))

    def unit_extension():
        for (X,), fs in quantify(universe, "X", lambda X: []):
            yield from instances(f"|X|={len(X)}", fs,
                                 lambda: (ext(M.unit_at(X)), amb.identity(M.obj(X))))

    def extension_composition(g: FinFn, f: FinFn) -> tuple:
        eg = ext(g)
        return ext(amb.compose(eg, f)), amb.compose(eg, ext(f))

    def composition():
        for (X, Y, Z), gfs in quantify(universe, "XYZ", lambda X, Y, Z: [hom(Y, Z), hom(X, Y)]):
            yield from instances(f"f:{len(X)}->{len(Y)},g:{len(Y)}->{len(Z)}", gfs,
                                 extension_composition)

    return LawReport(f"monad-extensive:{M.name}", universe.describe(), [
        compare("extension-unit", extension_unit()),
        compare("unit-extension", unit_extension()),
        compare("extension-composition", composition()),
    ])


# ---------------------------------------------------------------------------
# converters and the Kleisli category


def monoidal_to_extensive(M: MonadMonoidal) -> MonadExtensive:
    """Extension of f: X -> TY as multiplication after T(f)."""
    T = M.functor
    return MonadExtensive(
        M.name,
        obj=lambda X: apply_obj(T, X),
        unit_at=lambda X: M.unit.component(X),
        ext=extension(M.mult, T),
    )


class ConversionError(ValueError):
    pass


def extensive_to_monoidal(M: MonadExtensive, F: FunctorExpr, universe: TestUniverse) -> MonadMonoidal:
    """Recover multiplication as the extension of the identity on TX."""
    for X in universe.objects:
        if apply_obj(F, X) != M.obj(X):
            raise ConversionError(f"functor disagrees with object map at |X|={len(X)}")

    tables_u: dict[FinSet, FinFn] = {X: M.unit_at(X) for X in universe.objects}
    tables_m: dict[FinSet, FinFn] = {
        X: M.ext(identity(M.obj(X))) for X in universe.objects
    }
    unit = tabulated(Id(), F, tables_u, name=f"{M.name}.unit")
    mult = tabulated(compose_functors(F, F), F, tables_m, name=f"{M.name}.mult")
    return MonadMonoidal(M.name, F, unit, mult)


class ConstructionRefused(ValueError):
    """A construction's precondition check failed."""


def kleisli(M: MonadExtensive, universe: Optional[TestUniverse] = None) -> Category:
    """Kleisli category of an extensive monad: hom(X, Y) = hom(X, PY)."""
    if universe is not None:
        pre = check_monad_extensive(M, universe)
        if not pre.ok:
            failing = [v.axiom for v in pre.verdicts if not v.passed]
            raise ConstructionRefused(f"extensive laws fail for {M.name}: {failing}")
    base = M.ambient
    cached_ext = cache(M.ext)
    return Category(
        name=f"kleisli({M.name})",
        obj=lambda Y: base.obj(M.obj(Y)),
        compose=lambda g, f: base.compose(cached_ext(g), f),
        identity=lambda X: M.unit_at(X),
    )


def check_category(C: Category, universe: TestUniverse) -> LawReport:
    """Associativity and unitality of a finite category's composition."""
    def unitality():
        for (X, Y), fs in quantify(universe, "XY", lambda X, Y: [(X, C.obj(Y))]):
            yield from instances(f"f:{len(X)}->{len(Y)}", fs, {
                ",id-right": lambda f: (C.compose(f, C.identity(X)), f),
                ",id-left": lambda f: (C.compose(C.identity(Y), f), f),
            })

    def associativity():
        for (X, Y, Z, W), fghs in quantify(universe, "XYZW", lambda X, Y, Z, W: [
                (X, C.obj(Y)), (Y, C.obj(Z)), (Z, C.obj(W))]):
            yield from instances(
                f"f:{len(X)}->{len(Y)},g:{len(Y)}->{len(Z)},h:{len(Z)}->{len(W)}", fghs,
                lambda f, g, h: (C.compose(h, C.compose(g, f)), C.compose(C.compose(h, g), f)))

    return LawReport(f"category:{C.name}", universe.describe(), [
        compare("unitality", unitality()),
        compare("associativity", associativity()),
    ])


# ---------------------------------------------------------------------------
# the monad registry


@dataclass(frozen=True)
class Monoid:
    """Finite monoid given by element labels, an operation table and a unit."""

    elems: tuple[str, ...]
    op: tuple[tuple[str, ...], ...]
    unit: str

    def validate(self) -> None:
        n = len(self.elems)
        index = {e: i for i, e in enumerate(self.elems)}
        if len(index) != n:
            raise ValueError("monoid elements must be distinct")
        if self.unit not in index:
            raise ValueError("monoid unit must be an element")
        if len(self.op) != n or any(len(row) != n for row in self.op):
            raise ValueError("operation table must be square over the elements")
        for row in self.op:
            for v in row:
                if v not in index:
                    raise ValueError(f"operation value {v!r} is not an element")
        for a in self.elems:
            if self.mul(self.unit, a) != a or self.mul(a, self.unit) != a:
                raise ValueError("unit law fails in the monoid table")
        for a in self.elems:
            for b in self.elems:
                for c in self.elems:
                    if self.mul(a, self.mul(b, c)) != self.mul(self.mul(a, b), c):
                        raise ValueError(f"monoid is not associative at ({a},{b},{c})")

    def mul(self, a: str, b: str) -> str:
        i = self.elems.index(a)
        j = self.elems.index(b)
        return self.op[i][j]


GROUP_Z2 = Monoid(elems=("1", "s"), op=(("1", "s"), ("s", "1")), unit="1")


def identity_monad() -> MonadMonoidal:
    I = Id()
    return MonadMonoidal("identity", I, identity_nat(I, "u"), identity_nat(I, "m"))


def exception_monad(labels: Iterable[str]) -> MonadMonoidal:
    """T X = X + E with units into the left summand."""
    E = atoms(*labels)
    T = Sum(Id(), Const(E))

    def m_fn(e: Element) -> Element:
        if type(e) is Inl:
            return e.value  # inner tag survives
        return e

    name = f"exception[{len(E)}]"
    return MonadMonoidal(
        name,
        T,
        formula(Id(), T, lambda e: Inl(e), name="u"),
        formula(compose_functors(T, T), T, m_fn, name="m"),
    )


def maybe_monad() -> MonadMonoidal:
    M = exception_monad(["nothing"])
    M.name = "maybe"
    return M


def writer_monad(monoid: Monoid) -> MonadMonoidal:
    monoid.validate()
    M = atoms(*monoid.elems)
    T = Prod(Const(M), Id())
    unit_elem = Atom(monoid.unit)

    def m_fn(e: Element) -> Element:
        inner = e.snd
        return Pair(Atom(monoid.mul(e.fst.label, inner.fst.label)), inner.snd)

    return MonadMonoidal(
        f"writer[{len(monoid.elems)}]",
        T,
        formula(Id(), T, lambda e: Pair(unit_elem, e), name="u"),
        formula(compose_functors(T, T), T, m_fn, name="m"),
    )


def reader_monad(labels: Iterable[str]) -> MonadMonoidal:
    R = atoms(*labels)
    T = Exp(R)
    rs = R.elements

    def m_fn(e: Element) -> Element:
        # e : R -> (R -> X); diagonalize
        outer = dict(e.entries)
        return FnTable(tuple((r, dict(outer[r].entries)[r]) for r in rs))

    return MonadMonoidal(
        f"reader[{len(R)}]",
        T,
        formula(Id(), T, lambda e: FnTable(tuple((r, e) for r in rs)), name="u"),
        formula(compose_functors(T, T), T, m_fn, name="m"),
    )


def powerset_monad() -> MonadMonoidal:
    T = Power()

    def m_fn(e: Element) -> Element:
        return Subset([m for s in e._members for m in s._members])

    return MonadMonoidal(
        "powerset",
        T,
        formula(Id(), T, lambda e: Subset((e,)), name="u"),
        formula(compose_functors(T, T), T, m_fn, name="m"),
    )


def coreader_comonad(labels: Iterable[str]) -> ComonadMonoidal:
    """L X = A x X with projection counit and duplicating comultiplication."""
    A = atoms(*labels)
    L = Prod(Const(A), Id())
    return ComonadMonoidal(
        f"coreader[{len(A)}]",
        L,
        formula(L, Id(), lambda e: e.snd, name="epsilon"),
        formula(L, compose_functors(L, L), lambda e: Pair(e.fst, Pair(e.fst, e.snd)), name="delta"),
    )


def monad_from_config(cfg: dict) -> MonadMonoidal | ComonadMonoidal:
    """Build a registry monad from its JSON description."""
    name = cfg.get("name")
    if name == "identity":
        return identity_monad()
    if name == "maybe":
        return maybe_monad()
    if name == "exception":
        return exception_monad(cfg["E"])
    if name == "writer":
        m = cfg["monoid"]
        return writer_monad(Monoid(tuple(m["elems"]), tuple(tuple(r) for r in m["op"]), m["unit"]))
    if name == "reader":
        return reader_monad(cfg["R"])
    if name == "powerset":
        return powerset_monad()
    if name == "coreader":
        return coreader_comonad(cfg["A"])
    raise KeyError(f"unknown monad {name!r}")


def builtin_monads() -> dict[str, MonadMonoidal | ComonadMonoidal]:
    return {
        "identity": identity_monad(),
        "maybe": maybe_monad(),
        "exception": exception_monad(["e"]),
        "exception2": exception_monad(["e1", "e2"]),
        "writer": writer_monad(GROUP_Z2),
        "reader": reader_monad(["r1", "r2"]),
        "powerset": powerset_monad(),
        "coreader": coreader_comonad(["a1", "a2"]),
    }
