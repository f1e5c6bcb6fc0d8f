"""Brute-force discovery and refutation of distributive-law candidates.

Candidates are enumerated per object as raw component tables, filtered by
naturality across all universe morphisms, one pair of objects at a time,
then by the chosen axiom system.
Results at finite sizes are evidence, never theorems: a nonempty survivor
set says nothing about larger carriers, and reports say so.

Axiom instances that need components at objects outside the tabulated
sizes (iterated carriers grow fast) are skipped and counted, exactly as in
the exhaustive checkers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .distlaw import DistLaw, check_algebra, check_beck, check_decagon
from .elements import function_count, iter_functions
from .functors import apply_mor, apply_obj, compose_functors
from .monads import MonadMonoidal
from .report import LawReport, TestUniverse
from .transforms import square_failure, tabulated

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
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if any(len(X) > 3 for X in self.universe.objects):
            raise ValueError("search universes stop at size 3")


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
    src, tgt = _src_tgt(spec)
    total = 1
    for X in spec.universe.objects:
        total *= function_count(apply_obj(src, X), apply_obj(tgt, X))
    return total


def _natural_candidates(spec: SearchSpec) -> list:
    """The natural candidates, in the order of the raw product of the
    per-object pools.

    A naturality square for f: X -> Y involves only the components at X
    and Y, so the constraints are pairwise.  Each object's pool keeps the
    tables that pass their endomorphism squares; a table pair of two
    distinct objects is compatible when it passes the squares of the
    morphisms between them in both directions.  A depth-first walk over
    the filtered pools, in pool order, then yields exactly the natural
    combinations of the raw product, in its order.
    """
    src, tgt = _src_tgt(spec)
    objects = spec.universe.objects
    index = {X: i for i, X in enumerate(objects)}
    squares: dict[tuple[int, int], list] = {}
    for f in spec.universe.all_morphisms():
        key = (index[f.dom], index[f.cod])
        squares.setdefault(key, []).append((apply_mor(src, f), apply_mor(tgt, f)))

    def passes(key, a, b) -> bool:
        return all(square_failure(sf, tf, a, b) is None for sf, tf in squares.get(key, ()))

    pools = [
        [t for t in iter_functions(apply_obj(src, X), apply_obj(tgt, X)) if passes((i, i), t, t)]
        for i, X in enumerate(objects)
    ]
    # compatible[j][i]: for i < j, the index pairs (a, b) of pools i and j
    # whose tables pass every square between objects i and j
    compatible = [
        {i: {(a, b) for a, ta in enumerate(pools[i]) for b, tb in enumerate(pools[j])
             if passes((i, j), ta, tb) and passes((j, i), tb, ta)}
         for i in range(j) if (i, j) in squares or (j, i) in squares}
        for j in range(len(objects))
    ]

    natural = []
    chosen: list[int] = []

    def walk(j: int) -> None:
        if j == len(objects):
            tables = {X: pools[i][a] for i, (X, a) in enumerate(zip(objects, chosen))}
            natural.append(tabulated(src, tgt, tables, name="candidate"))
            return
        for b in range(len(pools[j])):
            if all((chosen[i], b) in pairs for i, pairs in compatible[j].items()):
                chosen.append(b)
                walk(j + 1)
                chosen.pop()

    walk(0)
    return natural


def _axiom_systems(spec: SearchSpec) -> list[tuple[str, callable]]:
    def beck(nt):
        return check_beck(DistLaw("candidate", spec.T, spec.P, nt), spec.universe)

    def deca(nt):
        return check_decagon(DistLaw("candidate", spec.T, spec.P, nt), spec.universe)

    def alg(nt):
        from .distlaw import DistLawAlgebra

        return check_algebra(DistLawAlgebra("candidate", spec.T, spec.P, nt), spec.universe)

    if spec.form == "monoidal":
        return [("beck", beck)]
    if spec.form == "decagon":
        return [("decagon", deca)]
    if spec.form == "algebra":
        return [("algebra", alg)]
    return [("beck", beck), ("decagon", deca)]


def enumerate_candidates(spec: SearchSpec) -> SearchResult:
    """Exhaustively enumerate, filter by naturality, then by axioms.

    With form "all" the monoidal and decagon systems are both applied and
    their survivor sets compared; a mismatch raises, since their agreement
    is the cross-validation the search exists for.
    """
    total = raw_count(spec)
    if total > spec.budget:
        raise BudgetExceeded(f"raw candidate count {total} exceeds budget {spec.budget}")

    natural = _natural_candidates(spec)

    systems = _axiom_systems(spec)
    per_axiom: dict[str, int] = {}
    survivor_sets = []
    for name, check in systems:
        good = [c for c in natural if check(c).no_counterexample]
        per_axiom[name] = len(good)
        survivor_sets.append(good)
    first = survivor_sets[0]
    agree = all({id(c) for c in other} == {id(c) for c in first} for other in survivor_sets[1:])
    return SearchResult(
        spec_desc=f"T={spec.T.name} P={spec.P.name} form={spec.form} {spec.universe.describe()}",
        note=EVIDENCE_NOTE,
        raw=total,
        natural=len(natural),
        per_axiom=per_axiom,
        survivors=first,
        forms_agree=agree,
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
    systems = _axiom_systems(spec)
    report = systems[0][1](candidate)
    out = LawReport(f"refute[{spec.form}]", spec.universe.describe())
    for v in report.verdicts:
        out.verdicts.append(v)
        if not v.passed:
            break
    return out
