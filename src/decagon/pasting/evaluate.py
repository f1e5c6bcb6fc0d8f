"""Degenerate (strict, concrete) evaluation of the symbolic layer.

An interpretation assigns finite-set functors to the functor symbols and
component families to the arrow generators; every cell generator then
asserts an equation: its source-path composite equals its target-path
composite.  Checking an axiom degenerately means checking that equation
for every cell generator occurring in either side.  Generic-morphism
symbols and the object symbols in their boundaries are quantified over
the test universe, which is where the hom-set quantification of the
operator-form axioms lives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

from ..elements import FinFn, FinSet, iter_functions
from ..functors import Const, FunctorExpr, Id, apply_obj, compose_functors
from ..report import AxiomVerdict, LawReport, TestUniverse, compare
from ..transforms import (
    ComponentUnavailable,
    NatTrans,
    OversizeCarrier,
    Step,
    composite_map,
    identity_map,
)
from .signature import Signature
from .terms import CellGen, cells_used
from .words import Path, Word

OBJECT_SYMBOLS = ("X", "Y", "Z", "W")
GENERIC_ARROWS = ("f", "g", "h")


@dataclass
class Interpretation:
    """Concrete data for the symbolic layer.

    ``functors`` maps monad symbols (T, P) to functor expressions;
    ``arrows`` maps arrow generators to transformation families.  Object
    symbols and generic morphisms stay unassigned and are quantified
    during checking.
    """

    name: str
    functors: dict[str, FunctorExpr]
    arrows: dict[str, NatTrans]

    def word_functor(self, w: Word, objects: dict[str, FinSet]) -> FunctorExpr:
        parts: list[FunctorExpr] = []
        for s in w.symbols:
            if s in self.functors:
                parts.append(self.functors[s])
            elif s in objects:
                parts.append(Const(objects[s]))
            else:
                raise KeyError(f"no assignment for symbol {s!r}")
        return compose_functors(*parts)

    def path_steps(
        self, path: Path, objects: dict[str, FinSet], generics: dict[str, FinFn]
    ) -> list[Step]:
        steps = []
        for atom in path.atoms:
            name = atom.gen.name
            if name in self.arrows:
                nt = self.arrows[name]
            elif name in generics:
                fn = generics[name]
                nt = NatTrans(
                    self.word_functor(atom.gen.src, objects),
                    self.word_functor(atom.gen.tgt, objects),
                    lambda X, _f=fn: _f,
                    name=name,
                )
            else:
                raise KeyError(f"no assignment for arrow {name!r}")
            steps.append(
                Step(
                    self.word_functor(atom.prefix, objects),
                    nt,
                    self.word_functor(atom.suffix, objects),
                )
            )
        return steps


def identity_interpretation() -> Interpretation:
    """T = P = identity; every arrow is an identity family."""
    I = Id()
    ident = NatTrans(I, I, lambda X: (lambda e: e), name="id")
    return Interpretation(
        "identity",
        {"T": I, "P": I},
        {k: ident for k in ("u", "m", "eta", "mu", "lambda", "alpha")},
    )


def law_interpretation(law) -> Interpretation:
    """Strict interpretation induced by a concrete distributive law, given
    by lambda (``DistLaw``, which also interprets alpha as Pm . lambda T)
    or by alpha (``DistLawAlgebra``)."""
    from ..distlaw import DistLawAlgebra, monoidal_to_algebra

    arrows = {"u": law.T.unit, "m": law.T.mult, "eta": law.P.unit, "mu": law.P.mult}
    if isinstance(law, DistLawAlgebra):
        arrows["alpha"] = law.alpha
    else:
        arrows["lambda"] = law.lam
        arrows["alpha"] = monoidal_to_algebra(law).alpha
    return Interpretation(law.name, {"T": law.T.functor, "P": law.P.functor}, arrows)


def _mentioned_symbols(cell: CellGen) -> tuple[set[str], set[str]]:
    objs: set[str] = set()
    gens: set[str] = set()
    for path in (cell.src, cell.tgt):
        for atom in path.atoms:
            for w in (atom.prefix, atom.suffix, atom.gen.src, atom.gen.tgt):
                objs.update(s for s in w.symbols if s in OBJECT_SYMBOLS)
            if atom.gen.name in GENERIC_ARROWS:
                gens.add(atom.gen.name)
        objs.update(s for s in path.start.symbols if s in OBJECT_SYMBOLS)
    return objs, gens


_GENERIC_BOUNDARY = {"f": ("X", "Y"), "g": ("Y", "Z"), "h": ("Z", "W")}


def _side(interp: Interpretation, path: Path, objects: dict[str, FinSet],
          generics: dict[str, FinFn], X: FinSet, cap: int) -> dict:
    """A path's composite at X; the identity map for the empty path."""
    steps = interp.path_steps(path, objects, generics)
    if steps:
        return composite_map(steps, X, cap)
    return identity_map(interp.word_functor(path.start, objects), X, cap)


def evaluate_cell(
    cell: CellGen,
    interp: Interpretation,
    universe: TestUniverse,
) -> AxiomVerdict:
    """Check source-composite = target-composite for one cell generator,
    quantifying object symbols over the universe and generic arrows over
    the corresponding hom-sets."""
    def functor_depth(w: Word) -> int:
        return sum(1 for s in w.symbols if s not in OBJECT_SYMBOLS)

    words = [cell.src.start] + [a.tgt for a in cell.src.atoms + cell.tgt.atoms]
    depth = max(functor_depth(w) for w in words)
    if depth > universe.depth_bound:
        raise ValueError(
            f"cell {cell.name} needs functor words of length {depth}, "
            f"universe depth bound is {universe.depth_bound}"
        )
    objs, gens = _mentioned_symbols(cell)
    obj_names = sorted(objs | {o for g in gens for o in _GENERIC_BOUNDARY[g]})

    def pt_of(Y: FinSet) -> FinSet:
        PT = compose_functors(interp.functors["P"], interp.functors["T"])
        return apply_obj(PT, Y)

    def assignments():
        """(objects, generics) pairs; generics is None where the hom-sets
        are too large to enumerate."""
        for combo in product(universe.objects, repeat=len(obj_names)):
            assignment = dict(zip(obj_names, combo))
            pools = []
            for g in sorted(gens):
                a, b = _GENERIC_BOUNDARY[g]
                target = pt_of(assignment[b])
                if len(target) ** len(assignment[a]) > 4096:
                    yield assignment, None
                    break
                pools.append([(g, fn) for fn in iter_functions(assignment[a], target)])
            else:
                for chosen in product(*pools):
                    yield assignment, dict(chosen)

    def instances():
        ambient_objects = universe.objects if not obj_names else universe.objects[:1]
        for assignment, generics in assignments():
            where = "".join(f",{k}={len(v)}" for k, v in assignment.items())
            if generics is None:
                yield where, None
                continue
            for X in ambient_objects:
                at = f"|X|={len(X)}{where}"
                try:
                    left = _side(interp, cell.src, assignment, generics, X, universe.carrier_cap)
                    right = _side(interp, cell.tgt, assignment, generics, X, universe.carrier_cap)
                except (OversizeCarrier, ComponentUnavailable):
                    yield at, None
                    continue
                yield at, (left, right)

    return compare(f"cell:{cell.name}", instances())


def check_cells(
    law: str,
    cells: dict[str, str],
    interp: Interpretation,
    universe: TestUniverse,
    sig: Signature,
) -> LawReport:
    """Evaluate the named cells of ``sig`` under ``interp``; each verdict is
    reported under its key in ``cells``."""
    report = LawReport(law, universe.describe())
    for axiom, name in cells.items():
        report.verdicts.append(replace(evaluate_cell(sig.cells[name], interp, universe),
                                       axiom=axiom))
    return report


def check_axiom_degenerate(
    axiom_name: str,
    interp: Interpretation,
    universe: TestUniverse,
    sig: Signature | None = None,
) -> LawReport:
    """Evaluate every cell generator occurring in the named axiom."""
    from .builtin import builtin_signature

    sig = sig or builtin_signature()
    lhs, rhs = sig.axioms[axiom_name]
    names = sorted(cells_used(lhs) | cells_used(rhs))
    return check_cells(f"axiom:{axiom_name}[{interp.name}]", {f"cell:{n}": n for n in names},
                       interp, universe, sig)
