"""Brute-force discovery and refutation of distributive-law candidates.

Candidates are built from their values at generic elements and carried
along injections (``_natural_candidates``), kept when natural along the
maps that are not injective, then filtered by the chosen axiom system.
Results at finite sizes are evidence, never theorems: a nonempty survivor
set says nothing about larger carriers, and reports say so.

Axiom instances that need components at objects outside the tabulated
sizes (iterated carriers grow fast) are skipped and counted, exactly as in
the exhaustive checkers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import prod

from .distlaw import DistLaw, DistLawAlgebra, check_algebra, check_beck, check_decagon
from .elements import FinFn
from .functors import apply_mor, apply_obj, compose_functors
from .monads import MonadMonoidal
from .report import LawReport, TestUniverse
from .transforms import check_naturality, tabulated

EVIDENCE_NOTE = (
    "finite-size evidence only: survivors at these sizes need not extend to a law"
)


class BudgetExceeded(ValueError):
    pass


@dataclass
class SearchSpec:
    T: MonadMonoidal
    P: MonadMonoidal
    form: str = "all"  # "monoidal" | "decagon" | "algebra" | "all"
    universe: TestUniverse = field(default_factory=lambda: TestUniverse.sizes(2))
    budget: int = 200_000

    def __post_init__(self):
        if not (isinstance(self.T, MonadMonoidal) and isinstance(self.P, MonadMonoidal)):
            raise ValueError("search handles monad-monad pairs only")
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        # the generic elements of an object are found from every smaller size
        sizes = sorted(len(X) for X in self.universe.objects)
        if sizes != list(range(len(sizes))) or len(sizes) > 4:
            raise ValueError("search universes hold one object of each size 0..n, n at most 3")


@dataclass
class SearchResult:
    spec_desc: str
    note: str
    raw: int
    natural: int
    per_axiom: dict[str, int]
    survivors: list  # tabulated NatTrans
    forms_agree: bool = True


def _src_tgt(spec: SearchSpec) -> tuple:
    if spec.form == "algebra":
        src = compose_functors(spec.T.functor, spec.P.functor, spec.T.functor)
    else:
        src = compose_functors(spec.T.functor, spec.P.functor)
    tgt = compose_functors(spec.P.functor, spec.T.functor)
    return src, tgt


def raw_count(spec: SearchSpec) -> int:
    """The number of families of component tables on the universe."""
    src, tgt = _src_tgt(spec)
    return prod(len(apply_obj(tgt, X)) ** len(apply_obj(src, X)) for X in spec.universe.objects)


def _injective(f: FinFn) -> bool:
    return len({f(x) for x in f.dom}) == len(f.dom)


def _natural_candidates(spec: SearchSpec) -> list:
    """The natural candidates, in the order of the raw product of the
    per-object component tables.

    Every functor of the grammar preserves injections and their
    intersections, so each element of F(X) is carried along an injection
    from a generic element: one of F(W) that no injection from a smaller
    object reaches, taken one per orbit of the bijections of W (Weber,
    TAC 13, 2004).  A natural family is fixed by its values there, each an
    element of G(W) that the generic element's stabiliser fixes.  Each
    choice of values, carried along every injection, is a candidate
    natural along injections by construction; ``check_naturality`` over
    the maps that are not injective keeps the natural ones.
    ``BudgetExceeded`` when the choices are more than the budget.
    """
    src, tgt = _src_tgt(spec)
    universe = spec.universe
    objects = sorted(universe.objects, key=len)
    generic, values = [], []  # each orbit's (object, representative) and its values
    reached = {}  # X -> {element of F(X): (orbit, G(i) for an injection i carrying it)}
    for n, X in enumerate(objects):
        at = reached[X] = {}
        carry = {W: [(apply_mor(src, i), apply_mor(tgt, i))
                     for i in universe.hom(W, X) if _injective(i)] for W in objects[:n + 1]}
        for r, (W, g) in enumerate(generic):
            at.update((fi(g), (r, gi)) for fi, gi in carry[W])
        for e in apply_obj(src, X):
            if e not in at:
                fixed = [gi for fi, gi in carry[X] if fi(e) is e]
                values.append([v for v in apply_obj(tgt, X) if all(gi(v) is v for gi in fixed)])
                at.update((fi(e), (len(generic), gi)) for fi, gi in carry[X])
                generic.append((X, e))
    count = prod(map(len, values))
    if count > spec.budget:
        raise BudgetExceeded(f"generic choice count {count} exceeds budget {spec.budget} "
                             f"(raw candidate count {raw_count(spec)})")

    non_injective = [f for f in universe.all_morphisms() if not _injective(f)]
    natural = []
    for choice in product(*values):
        tables = {X: FinFn(apply_obj(src, X), apply_obj(tgt, X),
                           {e: gi(choice[r]) for e, (r, gi) in reached[X].items()})
                  for X in universe.objects}
        nt = tabulated(src, tgt, tables, name="candidate")
        if check_naturality(nt, non_injective) is None:
            natural.append(nt)
    # the raw product orders tables by their values' positions in G(X)
    position = {X: {v: k for k, v in enumerate(apply_obj(tgt, X))} for X in universe.objects}
    return sorted(natural, key=lambda nt: [position[X][v] for X in universe.objects
                                           for _, v in nt.component(X).pairs])


def _axiom_systems(spec: SearchSpec) -> list[tuple[str, callable]]:
    def beck(nt):
        return check_beck(DistLaw("candidate", spec.T, spec.P, nt), spec.universe)

    def deca(nt):
        return check_decagon(DistLaw("candidate", spec.T, spec.P, nt), spec.universe)

    def alg(nt):
        return check_algebra(DistLawAlgebra("candidate", spec.T, spec.P, nt), spec.universe)

    if spec.form == "monoidal":
        return [("beck", beck)]
    if spec.form == "decagon":
        return [("decagon", deca)]
    if spec.form == "algebra":
        return [("algebra", alg)]
    return [("beck", beck), ("decagon", deca)]


def enumerate_candidates(spec: SearchSpec) -> SearchResult:
    """Enumerate the natural candidates, then filter them by axioms.

    With form "all" the monoidal and decagon systems are both applied and
    their survivor sets compared in ``forms_agree``, since their agreement
    is the cross-validation the search exists for.
    """
    raw = raw_count(spec)  # builds every carrier, so one over the cap refuses at once
    natural = _natural_candidates(spec)
    survivors = {name: [c for c in natural if check(c).no_counterexample]
                 for name, check in _axiom_systems(spec)}
    first, *others = survivors.values()
    return SearchResult(
        spec_desc=f"T={spec.T.name} P={spec.P.name} form={spec.form} {spec.universe.describe()}",
        note=EVIDENCE_NOTE,
        raw=raw,
        natural=len(natural),
        per_axiom={name: len(good) for name, good in survivors.items()},
        survivors=first,
        forms_agree=all({id(c) for c in other} == {id(c) for c in first} for other in others),
    )


def candidate_matches(cand, reference, universe: TestUniverse) -> bool:
    """Table equality of a candidate against a reference family."""
    return all(cand.component(X) == reference.component(X) for X in universe.objects)


def refute(candidate, spec: SearchSpec) -> LawReport:
    """First failing axiom of the chosen system with a minimal witness, or
    a full pass."""
    src, tgt = _src_tgt(spec)
    if candidate.src != src or candidate.tgt != tgt:
        raise ValueError(
            f"candidate boundaries {candidate.src!r} -> {candidate.tgt!r} do not match "
            f"{src!r} -> {tgt!r}"
        )
    report = _axiom_systems(spec)[0][1](candidate)
    out = LawReport(f"refute[{spec.form}]", spec.universe.describe())
    for v in report.verdicts:
        out.verdicts.append(v)
        if not v.passed:
            break
    return out
