"""Distributive laws between monads on finite sets, in four presentations.

The same transformation lambda: TP -> PT can be checked against Beck's two
triangles and two pentagons (monoidal form), against two triangles plus a
single ten-sided condition on TPTPT (Kleisli-decagon form), repackaged as
alpha: TPT -> PT with a triangle, a square and a hexagon (algebra form), or
presented through extension operators hom(X, PTY) -> hom(TX, PTY) that
never iterate P (no-iteration form).  Converters move between the forms;
``compose_monads`` builds the composite monad on PT and
``extend_to_kleisli`` the induced extensive monad on the Kleisli category
of P.  Each family they build (alpha, the recovered lambda, the composite
unit and multiplication) is one ``derived`` path of whiskered steps.  The mixed case (a comonad distributing over a monad) gets a decagon
checker plus the classical four-axiom checker for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Optional

from .elements import (
    Element,
    FinFn,
    FinSet,
    Inl,
    Pair,
    Subset,
    atoms,
    compose,
    identity,
)
from .functors import Id, apply_obj, compose_functors
from .monads import (
    BASE_CATEGORY,
    ComonadMonoidal,
    MonadExtensive,
    MonadMonoidal,
    builtin_monads,
    extension_composition,
    extension_unit,
    kleisli,
    monad_from_config,
    monoidal_to_extensive,
    require,
)
from .pasting.builtin import builtin_signature, mixed_signature
from .pasting.evaluate import Interpretation, check_cells, law_interpretation
from .report import LawReport, TestUniverse, compare, instances, quantify
from .transforms import NatTrans, Step, derived, extension, per_member, tabulated


@dataclass
class DistLaw:
    """lambda: TP -> PT between two monads; data shared by the monoidal and
    decagon presentations, which differ only in the axiom set a checker
    runs."""

    name: str
    T: MonadMonoidal
    P: MonadMonoidal
    lam: NatTrans

    def __post_init__(self):
        expect_src = compose_functors(self.T.functor, self.P.functor)
        expect_tgt = compose_functors(self.P.functor, self.T.functor)
        if self.lam.src != expect_src or self.lam.tgt != expect_tgt:
            raise ValueError(
                f"lambda boundaries {self.lam.src!r} -> {self.lam.tgt!r} do not match TP -> PT"
            )


@dataclass
class DistLawAlgebra:
    """alpha: TPT -> PT presentation."""

    name: str
    T: MonadMonoidal
    P: MonadMonoidal
    alpha: NatTrans

    def __post_init__(self):
        T, P = self.T.functor, self.P.functor
        expect_src = compose_functors(T, P, T)
        expect_tgt = compose_functors(P, T)
        if self.alpha.src != expect_src or self.alpha.tgt != expect_tgt:
            raise ValueError("alpha boundaries do not match TPT -> PT")


@dataclass
class DistLawNoIteration:
    """Extension-operator presentation: op(f: X -> PTY): TX -> PTY."""

    name: str
    T: MonadMonoidal
    P: MonadExtensive
    op: Callable[[FinFn], FinFn]


@dataclass
class MixedLaw:
    """lambda: LR -> RL between a comonad L and a monad R."""

    name: str
    L: ComonadMonoidal
    R: MonadMonoidal
    lam: NatTrans


# ---------------------------------------------------------------------------
# checkers for the lambda forms
#
# Each table maps the axiom names a checker reports to the cells of a
# shipped signature that state them; the checker evaluates those cells
# under an interpretation of the law.

BECK_CELLS = {"unit-u-triangle": "omega1", "unit-eta-triangle": "omega2",
              "m-pentagon": "omega3", "mu-pentagon": "omega4"}
DECAGON_CELLS = {"unit-u-triangle": "omega1", "unit-eta-triangle": "omega2", "decagon": "Omega"}
ALGEBRA_CELLS = {"unit-triangle": "psi1", "eta-square": "psi2", "hexagon": "Psi"}
FIVE_AXIOM_CELLS = {"algebra-unit": "psi1", "algebra-mult": "algebra-mult", "m-square": "H",
                    "eta-square": "psi2", "mu-diagram": "mu-diagram"}
MIXED_DECAGON_CELLS = {a: a for a in ("epsilon-triangle", "eta-triangle", "mixed-decagon")}
MIXED_CLASSIC_CELLS = {a: a for a in ("epsilon-triangle", "eta-triangle", "delta-pentagon",
                                      "mu-pentagon")}


def check_beck(D: DistLaw, universe: TestUniverse) -> LawReport:
    """Two unit triangles and two pentagons."""
    return check_cells(f"beck:{D.name}", BECK_CELLS, law_interpretation(D), universe,
                       builtin_signature())


def check_decagon(D: DistLaw, universe: TestUniverse) -> LawReport:
    """Two unit triangles and the single decagon on TPTPT."""
    return check_cells(f"decagon:{D.name}", DECAGON_CELLS, law_interpretation(D), universe,
                       builtin_signature())


def check_algebra(D: DistLawAlgebra, universe: TestUniverse) -> LawReport:
    """Unit triangle, eta square and the hexagon on TPTPT."""
    return check_cells(f"algebra:{D.name}", ALGEBRA_CELLS, law_interpretation(D), universe,
                       builtin_signature())


def check_five_axiom(
    alpha: NatTrans, T: MonadMonoidal, P: MonadMonoidal, universe: TestUniverse,
    name: str = "",
) -> LawReport:
    """T-algebra structure plus three squares on alpha: TPT -> PT."""
    name = name or "alpha"
    return check_cells(f"five-axiom:{name}", FIVE_AXIOM_CELLS,
                       law_interpretation(DistLawAlgebra(name, T, P, alpha)), universe,
                       builtin_signature())


def check_noiter(D: DistLawNoIteration, universe: TestUniverse) -> LawReport:
    """Three equations on the extension operator, quantified over homs.

    ``op`` extends T to the Kleisli category of P: op-unit is its
    extension-unit in FinSet and op-composition its extension-composition
    in the Kleisli category, right-hand side first (``monads``' shared
    equations).  Each distinct morphism goes through ``op`` once per call;
    an instance that refuses, such as one that needs an unavailable
    component, is skipped."""
    T, P, TY = D.T, D.P, partial(apply_obj, D.T.functor)
    op = cache(D.op)

    def ax_eta():
        for (X,), fs in quantify(universe, "X", lambda X: []):
            etaTX = P.unit_at(TY(X))
            yield from instances(f"|X|={len(X)}", fs,
                                 lambda: (op(etaTX), compose(etaTX, T.mult.component(X))))

    return LawReport(f"noiter:{D.name}", universe.describe(), [
        compare("op-unit", extension_unit(universe, BASE_CATEGORY, lambda Y: P.obj(TY(Y)),
                                          T.unit.component, op)),
        compare("op-eta", ax_eta()),
        compare("op-composition",
                extension_composition(universe, kleisli(P), TY, op, rhs_first=True)),
    ])


# ---------------------------------------------------------------------------
# mixed distributive laws


def _mixed_interpretation(Mx: MixedLaw) -> Interpretation:
    return Interpretation(
        Mx.name,
        {"L": Mx.L.functor, "R": Mx.R.functor},
        {"epsilon": Mx.L.counit, "delta": Mx.L.comult, "eta": Mx.R.unit, "mu": Mx.R.mult,
         "lambda": Mx.lam},
    )


def check_mixed_decagon(Mx: MixedLaw, universe: TestUniverse) -> LawReport:
    """Two triangles plus a ten-sided condition from LR^2 to RL^2."""
    return check_cells(f"mixed-decagon:{Mx.name}", MIXED_DECAGON_CELLS,
                       _mixed_interpretation(Mx), universe, mixed_signature())


def check_mixed_classic(Mx: MixedLaw, universe: TestUniverse) -> LawReport:
    """The classical four axioms for a comonad distributing over a monad."""
    return check_cells(f"mixed-classic:{Mx.name}", MIXED_CLASSIC_CELLS,
                       _mixed_interpretation(Mx), universe, mixed_signature())


# ---------------------------------------------------------------------------
# converters


def monoidal_to_algebra(D: DistLaw) -> DistLawAlgebra:
    """alpha = Pm after lambda-whiskered-by-T."""
    T, P = D.T.functor, D.P.functor
    alpha = derived(compose_functors(T, P, T), compose_functors(P, T), f"alpha[{D.name}]",
                    Step(Id(), D.lam, T), Step(P, D.T.mult, Id()))
    return DistLawAlgebra(D.name, D.T, D.P, alpha)


def algebra_to_monoidal(D: DistLawAlgebra, universe: Optional[TestUniverse] = None) -> DistLaw:
    """Recover lambda as alpha after TPu."""
    if universe is not None:
        require(check_algebra(D, universe), f"algebra form of {D.name}")
    TP = compose_functors(D.T.functor, D.P.functor)
    lam = derived(TP, compose_functors(D.P.functor, D.T.functor), f"lambda[{D.name}]",
                  Step(TP, D.T.unit, Id()), Step(Id(), D.alpha, Id()))
    return DistLaw(D.name, D.T, D.P, lam)


def algebra_to_noiter(D: DistLawAlgebra, universe: Optional[TestUniverse] = None) -> DistLawNoIteration:
    """op(f) = alpha after T(f)."""
    if universe is not None:
        require(check_algebra(D, universe), f"algebra form of {D.name}")
    return DistLawNoIteration(D.name, D.T, monoidal_to_extensive(D.P),
                              extension(D.alpha, D.T.functor))


def noiter_to_algebra(
    D: DistLawNoIteration, universe: TestUniverse, P_monoidal: MonadMonoidal,
) -> DistLawAlgebra:
    """Recover alpha at X as op applied to the identity on PTX."""
    T, P = D.T.functor, P_monoidal.functor
    tables: dict[FinSet, FinFn] = {}
    for X in universe.objects:
        ptx = D.P.obj(apply_obj(T, X))
        tables[X] = D.op(identity(ptx))
    alpha = tabulated(
        compose_functors(T, P, T), compose_functors(P, T), tables,
        name=f"alpha[{D.name}]",
    )
    return DistLawAlgebra(D.name, D.T, P_monoidal, alpha)


def compose_monads(D: DistLawAlgebra, universe: Optional[TestUniverse] = None) -> MonadMonoidal:
    """Composite monad on PT: unit etaT.u, multiplication muT.PPm.PlambdaT."""
    if universe is not None:
        require(check_algebra(D, universe), f"algebra form of {D.name}")
    T, P = D.T.functor, D.P.functor
    PT = compose_functors(P, T)
    return MonadMonoidal(
        f"{D.P.name}.{D.T.name}",
        PT,
        derived(Id(), PT, "unit", Step(Id(), D.T.unit, Id()), Step(Id(), D.P.unit, T)),
        derived(compose_functors(PT, PT), PT, "mult", Step(P, algebra_to_monoidal(D).lam, T),
                Step(compose_functors(P, P), D.T.mult, Id()), Step(Id(), D.P.mult, T)),
    )


def extend_to_kleisli(D: DistLawAlgebra, universe: Optional[TestUniverse] = None) -> MonadExtensive:
    """Extensive monad on the Kleisli category of P induced by the law: the
    no-iteration form's ``op`` over its P, with the composite monad's unit."""
    N = algebra_to_noiter(D, universe)
    return MonadExtensive(
        f"kleisli-extension[{D.name}]",
        obj=lambda X: apply_obj(D.T.functor, X),
        unit_at=compose_monads(D).unit.component,
        ext=N.op,
        ambient=kleisli(N.P),
    )


# ---------------------------------------------------------------------------
# built-in laws


def _exception_dist(e: Element) -> Element:
    """Per member: lambda(inl {a}) = {inl a}; lambda(inr e) = {inr e}."""
    return Subset((Inl(e.value._members[0]) if type(e) is Inl else e,))


def _strength(e: Element) -> Element:
    """Per member: (m, {x}) goes to {(m, x)}."""
    return Subset((Pair(e.fst, e.snd._members[0]),))


def _component(fn: Callable[[Element], Element], name: str):
    """Maps a monad pair to its family TP -> PT, per member of the P."""
    return lambda T, P: per_member(compose_functors(T.functor, P.functor),
                                   compose_functors(P.functor, T.functor), fn, name=name)


_BUILTIN_COMPONENTS = {
    "exception-dist": _component(_exception_dist, "exception-dist"),
    "writer-strength": _component(_strength, "writer-strength"),
    "coreader-strength": _component(_strength, "coreader-strength"),
}


def _builtin_law(kind, name: str, outer: str, inner: str, component: str):
    monads = builtin_monads()
    T, P = monads[outer], monads[inner]
    return kind(name, T, P, _BUILTIN_COMPONENTS[component](T, P))


def exception_over_powerset() -> DistLaw:
    return _builtin_law(DistLaw, "exception-over-powerset", "exception", "powerset",
                        "exception-dist")


def writer_over_powerset() -> DistLaw:
    return _builtin_law(DistLaw, "writer-over-powerset", "writer", "powerset", "writer-strength")


def coreader_over_powerset() -> MixedLaw:
    """Mixed strength law: (a, S) goes to {(a, x) for x in S}."""
    return _builtin_law(MixedLaw, "coreader-over-powerset", "coreader", "powerset",
                        "coreader-strength")


def _validate_component(lam: NatTrans, name: str) -> None:
    """Smoke-materialise the component on tiny carriers so that a builtin
    component paired with structurally wrong monads is a config error."""
    for X in (atoms(), atoms("a")):
        try:
            lam.component(X)
        except (AttributeError, TypeError, KeyError, ValueError) as exc:
            raise ValueError(
                f"lambda {lam.name!r} does not fit the monads of law {name!r}: {exc}"
            ) from exc


def law_from_config(cfg: dict) -> DistLaw | MixedLaw:
    """Build a law from its JSON description, for example
    {"law": "...", "T": {"name": "exception", "E": ["e"]},
     "P": {"name": "powerset"}, "lambda": "builtin:exception-dist"}."""
    name = cfg["law"]
    lam_spec = cfg["lambda"]
    if not (isinstance(lam_spec, str) and lam_spec.startswith("builtin:")):
        raise ValueError(f"lambda must name a builtin component, got {lam_spec!r}")
    builder = _BUILTIN_COMPONENTS.get(lam_spec.split(":", 1)[1])
    if builder is None:
        raise KeyError(f"unknown builtin lambda {lam_spec!r}")
    if "L" in cfg:
        L = monad_from_config(cfg["L"])
        R = monad_from_config(cfg["R"])
        law = MixedLaw(name, L, R, builder(L, R))
    else:
        T = monad_from_config(cfg["T"])
        P = monad_from_config(cfg["P"])
        if isinstance(T, ComonadMonoidal):
            law = MixedLaw(name, T, P, builder(T, P))
        else:
            law = DistLaw(name, T, P, builder(T, P))
    _validate_component(law.lam, name)
    return law


def builtin_laws() -> dict[str, DistLaw | MixedLaw]:
    return {
        "exception-over-powerset": exception_over_powerset(),
        "writer-over-powerset": writer_over_powerset(),
        "coreader-over-powerset": coreader_over_powerset(),
    }
