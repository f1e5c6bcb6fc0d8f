"""Degenerate (strict, concrete) evaluation of the symbolic layer.

An interpretation assigns finite-set functors to the functor symbols and
component families to the arrow generators; every cell generator then
asserts an equation: its source-path composite equals its target-path
composite.  Checking an axiom degenerately means checking that equation
for every cell generator occurring in either side.  Symbols the
interpretation leaves without a functor are object symbols and arrows it
leaves without a family are generic morphisms; both are quantified over
the test universe, which is where the hom-set quantification of the
operator-form axioms lives.

Axioms paste the same few cells again and again, so ``evaluate_cell``
keeps each verdict on the interpretation, keyed by the cell, the carrier
cap and the object list, so that the verdicts go when it does; the memo
holds verdicts only, never elements.  Within one cell, every generic-free
step of each path is compiled once per object assignment, wherever it sits,
and the source carrier is pushed through the steps in front of the first
generic arrow once, before the loop over the generic arrows' functions;
per instance only the generic arrows' own steps are compiled, and the
values run from the first generic arrow on.  The compiled steps and their
memos belong to the assignment and go with it.

``P A`` is the free join-semilattice on ``A``: a map out of it that
preserves unions is fixed by its values on the empty set and the
singletons.  ``generator_mark`` finds the cells whose two paths both
preserve unions in one marked subset of the source, and each instance of
such a cell runs on those generators (``join_generators``) instead of the
whole source carrier.  Whether an instance fits the carrier cap is still
decided on the whole carrier, so the counts do not move, and the kernel
(``report.compare``) runs the first failing instance again on the whole
carrier for its witness.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterator, NamedTuple, Optional

from ..elements import FinFn, FinSet, Subset
from ..functors import (Const, FunctorExpr, Id, OversizeCarrier, apply_obj, compose_functors,
                        factors, marked_power, size_within)
from ..report import AxiomVerdict, LawReport, TestUniverse, compare, instances, quantify
from ..transforms import NatTrans, Step, carry_mark, compiled_step, formula, identity_nat
from .signature import Signature
from .terms import CellGen, cells_used
from .words import ArrowAtom, Path, Word


class DepthBoundExceeded(ValueError):
    """A cell needs functor words longer than the universe's depth bound."""


class UnboundGenericArrow(ValueError):
    """A generic arrow has a boundary word with no object symbol, so its
    carrier would depend on the ambient object."""


class _Generic(NamedTuple):
    """The atom of a generic arrow at one object assignment: its whiskering
    functors and boundary words, read once."""

    name: str
    prefix: FunctorExpr
    src: FunctorExpr
    tgt: FunctorExpr
    suffix: FunctorExpr

    def step(self, fn: FinFn) -> Step:
        return Step(self.prefix, formula(self.src, self.tgt, fn, name=self.name), self.suffix)


@dataclass(eq=False)
class Interpretation:
    """Concrete data for the symbolic layer.

    ``functors`` maps monad symbols (T, P) to functor expressions;
    ``arrows`` maps arrow generators to transformation families.  Object
    symbols and generic morphisms stay unassigned and are quantified
    during checking.  Interpretations compare and hash by identity, so a
    memoised verdict belongs to the one interpretation it was computed
    under.
    """

    name: str
    functors: dict[str, FunctorExpr]
    arrows: dict[str, NatTrans]
    # (cell, carrier cap, objects) -> its verdict; see evaluate_cell
    _verdicts: dict = field(default_factory=dict, init=False, repr=False)

    def word_functor(self, w: Word, objects: dict[str, FinSet]) -> FunctorExpr:
        return compose_functors(*(self.functors[s] if s in self.functors else Const(objects[s])
                                  for s in w.symbols))

    def generic(self, atom: ArrowAtom, objects: dict[str, FinSet]) -> _Generic:
        """The atom of a generic arrow, its words read off ``objects``."""
        word = partial(self.word_functor, objects=objects)
        return _Generic(atom.gen.name, word(atom.prefix), word(atom.gen.src),
                        word(atom.gen.tgt), word(atom.suffix))

    def atom_step(self, atom: ArrowAtom, objects: dict[str, FinSet],
                  generics: dict[str, FinFn]) -> Step:
        """The whiskered component of one atom; a generic arrow takes its
        function from ``generics``."""
        nt = self.arrows.get(atom.gen.name)
        if nt is None:
            return self.generic(atom, objects).step(generics[atom.gen.name])
        return Step(self.word_functor(atom.prefix, objects), nt,
                    self.word_functor(atom.suffix, objects))

    def path_steps(
        self, path: Path, objects: dict[str, FinSet], generics: dict[str, FinFn]
    ) -> list[Step]:
        return [self.atom_step(atom, objects, generics) for atom in path.atoms]


def identity_interpretation() -> Interpretation:
    """T = P = identity; every arrow is an identity family."""
    ident = identity_nat(Id())
    return Interpretation("identity", {"T": Id(), "P": Id()},
                          {k: ident for k in ("u", "m", "eta", "mu", "lambda", "alpha")})


def law_interpretation(law) -> Interpretation:
    """Strict interpretation induced by a concrete distributive law, given
    by lambda (``DistLaw``, which also interprets alpha as Pm . lambda T)
    or by alpha (``DistLawAlgebra``, which also interprets lambda as
    alpha . TPu): either way all six arrows are assigned."""
    from ..distlaw import DistLawAlgebra, algebra_to_monoidal, monoidal_to_algebra

    arrows = {"u": law.T.unit, "m": law.T.mult, "eta": law.P.unit, "mu": law.P.mult}
    if isinstance(law, DistLawAlgebra):
        arrows["alpha"] = law.alpha
        arrows["lambda"] = algebra_to_monoidal(law).lam
    else:
        arrows["lambda"] = law.lam
        arrows["alpha"] = monoidal_to_algebra(law).alpha
    return Interpretation(law.name, {"T": law.T.functor, "P": law.P.functor}, arrows)


def generator_mark(cell: CellGen, interp: Interpretation) -> Optional[int]:
    """The factor of the cell's source whose subset both paths preserve
    unions in, so that the cell holds when it holds on the empty set and
    the singletons there; None when the pass cannot show it.

    The mark starts on the source's first ``Power`` behind one-position
    factors (``functors.marked_power``), read off the interpreted functors,
    so the head P of a composite monad counts; ``carry_mark`` must take it
    to the head of the target on both paths.  Generic arrows are ``formula``
    families, so they may act under the mark only.  Not memoised: the
    verdict memo of ``evaluate_cell`` already asks once per cell, cap and
    object list."""
    objects = defaultdict(FinSet)
    generics = {a.gen.name: None for a in cell.src.atoms + cell.tgt.atoms}
    at = marked_power(interp.word_functor(cell.src.start, objects))
    return at if at is not None and all(
        carry_mark(interp.path_steps(path, objects, generics), at) == 0
        for path in (cell.src, cell.tgt)) else None


def join_generators(F: FunctorExpr, mark: int, X: FinSet, cap: int) -> FinSet:
    """The empty set and the singletons at factor ``mark`` of F(X), under
    the one-position factors in front of it: a subset of F(X), by interning,
    that generates it under unions there.  Refused like ``apply_obj(F, X,
    cap)`` when F(X) exceeds ``cap``, but F(X) itself is never built."""
    if size_within(F, len(X), cap) > cap:
        raise OversizeCarrier(f"carrier exceeds cap {cap}")
    fs = factors(F)
    members = apply_obj(compose_functors(*fs[mark + 1:]), X, cap)
    return apply_obj(compose_functors(*fs[:mark]),
                     FinSet([Subset(())] + [Subset((a,)) for a in members]), cap)


class _Side:
    """One path of a cell at one object assignment and ambient object X.

    Every generic-free step of the path is compiled once, on construction,
    wherever it sits in the path; each generic arrow becomes a ``_Generic``.
    ``push`` pushes the source, the whole carrier or with a ``mark`` its
    join generators, through the steps in front of the first generic arrow
    once, dropping each step and its memos once the source has passed it;
    for a path without generic arrows that is the whole path.
    ``composite`` compiles only the generic arrows' own steps for one
    choice of their functions and runs the values through the path.  The
    memos of the steps after a generic arrow are shared by the instances
    of the assignment and go with the ``_Side``.
    """

    def __init__(self, interp: Interpretation, path: Path, objects: dict[str, FinSet],
                 X: FinSet, cap: int, mark: Optional[int]):
        self.X, self.cap, self.mark = X, cap, mark
        self.start = interp.word_functor(path.start, objects)
        self.steps = [compiled_step(interp.atom_step(a, objects, {}), X, cap)
                      if a.gen.name in interp.arrows else interp.generic(a, objects)
                      for a in path.atoms]

    def push(self) -> "_Side":
        F, X, cap, steps = self.start, self.X, self.cap, self.steps
        self.dom = values = (apply_obj(F, X, cap) if self.mark is None
                             else join_generators(F, self.mark, X, cap)).elements
        while steps and type(steps[0]) is not _Generic:
            fn = steps.pop(0)
            values = [fn(v) for v in values]
        self.values = values
        return self

    def composite(self, generics: dict[str, FinFn]) -> dict:
        """The path's composite at X, the generic arrows taking ``generics``."""
        fns = [compiled_step(s.step(generics[s.name]), self.X, self.cap)
               if type(s) is _Generic else s for s in self.steps]
        out = {}
        for e, v in zip(self.dom, self.values):
            for fn in fns:
                v = fn(v)
            out[e] = v
        return out


def evaluate_cell(
    cell: CellGen,
    interp: Interpretation,
    universe: TestUniverse,
) -> AxiomVerdict:
    """Check source-composite = target-composite for one cell generator.

    The symbols the interpretation assigns no functor to are object
    symbols, quantified over the universe; the arrows it assigns no family
    to are generic, each ranging over the functions between the carriers
    of its declared boundary words.

    The verdict is computed once per cell, interpretation (by identity),
    carrier cap and object list, and kept on the interpretation; every
    call returns a fresh copy.  The depth-bound guard runs on every call.
    Within one object assignment every generic-free step of both paths is
    compiled once, wherever it sits, and the source carrier is pushed
    through the longest generic-free prefix of each path once, before the
    loop over the generic arrows' functions; if a step refuses (oversize
    carrier, missing component) every instance of the assignment is
    skipped, and so is the assignment when a generic arrow's boundary is
    over the cap.  Both paths compile before either pushes, so a refusal
    costs no push.  Per instance only the generic arrows' own steps are
    compiled; the other steps' memos are shared by the assignment's
    instances and freed with it, so none outlives this call."""
    atoms = cell.src.atoms + cell.tgt.atoms
    words = [cell.src.start, cell.tgt.start] + [a.tgt for a in atoms]
    depth = max(sum(1 for s in w.symbols if s in interp.functors) for w in words)
    if depth > universe.depth_bound:
        raise DepthBoundExceeded(
            f"cell {cell.name} needs functor words of length {depth}, "
            f"universe depth bound is {universe.depth_bound}"
        )
    memo = interp._verdicts
    key = (cell, universe.carrier_cap, tuple(universe.objects))
    verdict = memo.get(key)
    if verdict is None:
        verdict = memo[key] = _evaluate(cell, interp, universe, words)
    return replace(verdict)


def _evaluate(cell: CellGen, interp: Interpretation, universe: TestUniverse,
              words: list[Word]) -> AxiomVerdict:
    atoms = cell.src.atoms + cell.tgt.atoms
    symbols = {s for w in words + [a.src for a in atoms] for s in w.symbols}
    obj_names = sorted(symbols - interp.functors.keys())
    generics = sorted({a.gen for a in atoms if a.gen.name not in interp.arrows},
                      key=lambda g: g.name)
    for g in generics:
        if any(set(w.symbols) <= interp.functors.keys() for w in (g.src, g.tgt)):
            raise UnboundGenericArrow(f"cell {cell.name} needs a family for {g.name}: its "
                                      f"boundary {g.src} -> {g.tgt} has a word with no object")
    cap = universe.carrier_cap
    mark = generator_mark(cell, interp)

    def ends(X: FinSet, objects: dict[str, FinSet]) -> list[tuple[FinSet, FinSet]]:
        return [tuple(apply_obj(interp.word_functor(w, objects), X, cap) for w in (g.src, g.tgt))
                for g in generics]

    def composites(sides: list[_Side], *fs: FinFn) -> tuple[dict, dict]:
        chosen = {g.name: fn for g, fn in zip(generics, fs)}
        return tuple(side.composite(chosen) for side in sides)

    def side_pair(X: FinSet, objects: dict[str, FinSet], at: Optional[int]) -> list[_Side]:
        # both paths, on the join generators at ``at`` or the whole source
        sides = [_Side(interp, path, objects, X, cap, at) for path in (cell.src, cell.tgt)]
        return [side.push() for side in sides]

    def cell_instances():
        for X in universe.objects[:1] if obj_names else universe.objects:
            for combo, morphisms in quantify(
                    universe, obj_names, lambda *combo: ends(X, dict(zip(obj_names, combo)))):
                objects = dict(zip(obj_names, combo))
                at = f"|X|={len(X)}" + "".join(f",{k}={len(v)}" for k, v in objects.items())
                on = partial(side_pair, X, objects)
                yield from instances(at, morphisms, composites, prepare=partial(on, mark),
                                     whole=None if mark is None else partial(on, None))

    return compare(f"cell:{cell.name}", cell_instances())


def check_cells(law: str, cells: dict[str, str], interp: Interpretation,
                universe: TestUniverse, sig: Signature) -> LawReport:
    """Evaluate the named cells of ``sig`` under ``interp``; each verdict is
    reported under its key in ``cells``."""
    return LawReport(law, universe.describe(), list(cell_verdicts(cells, interp, universe, sig)))


def cell_verdicts(cells: dict[str, str], interp: Interpretation, universe: TestUniverse,
                  sig: Signature) -> Iterator[AxiomVerdict]:
    """The verdicts of ``check_cells``, in table order, each cell evaluated
    when its verdict is read: a reader that stops at a witness leaves the
    cells after it unevaluated."""
    for axiom, name in cells.items():
        yield replace(evaluate_cell(sig.cells[name], interp, universe), axiom=axiom)


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
