"""Verdicts, witnesses and reports shared by every exhaustive checker.

A report claims "pass" for an axiom only if every instance that fits the
carrier cap was evaluated equal; instances whose source carrier would be
astronomically large (iterated powersets grow as towers of exponentials)
are counted in ``skipped`` rather than silently ignored.  Every checker
draws its instances with ``quantify``, settles each one in ``instances``
and reaches its verdicts through the one kernel ``compare``, whose one
rule (``_settle``) counts each assignment's record (``Reduced``) and runs
it again in full for a witness, whichever reduction drew it.

``P B`` is the free join-semilattice on ``B``, so an equation whose two
sides preserve unions in each value of an arrow ``f: X -> P(B)`` holds for
every ``f`` once it holds for every ``f`` whose values are the empty set
or singletons.  ``quantify`` ranges such an arrow over those
``(|B|+1)^|X|`` generator-valued maps, each a member of the hom-set, when
its caller shows the sides linear by construction; ``checked`` still
counts the instances of the whole hom-set that they cover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from itertools import product
from math import prod
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence

from .elements import CompositionError, FinFn, FinSet, atoms, element_repr, iter_functions

DEFAULT_CARRIER_CAP = 200_000
HOM_CAP = 4096
# the reductions a record may be drawn under: an equation whose arrows
# into a powerset carrier, f and g alike, range over their generator-valued
# maps, and a cell checked on the join generators of its source
GENERATOR_VALUED_F = "generator-valued-f"
JOIN_GENERATORS = "join-generators"


@dataclass
class TestUniverse:
    """Objects over which all exhaustive checks run."""

    __test__ = False  # not a pytest class

    objects: list[FinSet]
    depth_bound: int = 7
    carrier_cap: int = DEFAULT_CARRIER_CAP
    _homs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def sizes(max_size: int = 2) -> "TestUniverse":
        """The atom sets of sizes 0 to ``max_size``, which is at most 4."""
        labels = ["a", "b", "c", "d"]
        if not 0 <= max_size <= len(labels):
            raise ValueError(f"max_size must be in 0..{len(labels)}, got {max_size}")
        return TestUniverse([atoms(*labels[:n]) for n in range(max_size + 1)])

    def hom(self, X: FinSet, Y: FinSet) -> list[FinFn]:
        """All functions X -> Y, one list per hom-set for the life of the
        universe, so that memos keyed by morphism hit by identity."""
        fns = self._homs.get((X, Y))
        if fns is None:
            fns = self._homs[X, Y] = list(iter_functions(X, Y))
        return fns

    def generators(self, X: FinSet, Y: FinSet) -> list[FinFn]:
        """The functions X -> Y, Y a powerset carrier, whose values are the
        empty set or singletons (``_generator_values``), in the order of
        ``hom(X, Y)``; one list per pair for the life of the universe."""
        fns = self._homs.get((X, Y, "generators"))
        if fns is None:
            fns = self._homs[X, Y, "generators"] = list(
                iter_functions(X, Y, _generator_values(Y)))
        return fns

    def all_morphisms(self) -> Iterator[FinFn]:
        for X in self.objects:
            for Y in self.objects:
                yield from self.hom(X, Y)

    def describe(self) -> str:
        sizes = ",".join(str(len(X)) for X in self.objects)
        return f"sizes={sizes} cap={self.carrier_cap}"


@dataclass(frozen=True)
class Witness:
    """Smallest failing object and first failing element, with both values."""

    at: str
    element: str
    lhs: str
    rhs: str

    def as_dict(self) -> dict:
        return {"at": self.at, "element": self.element, "lhs": self.lhs, "rhs": self.rhs}


@dataclass
class AxiomVerdict:
    axiom: str
    passed: bool
    checked: int
    skipped: int = 0
    witness: Optional[Witness] = None
    # the reduction its records were drawn under, if any (GENERATOR_VALUED_F
    # or JOIN_GENERATORS)
    reduction: Optional[str] = None

    def as_dict(self) -> dict:
        out = {
            "axiom": self.axiom,
            "passed": self.passed,
            "checked": self.checked,
            "skipped": self.skipped,
        }
        if self.reduction is not None:
            out["reduction"] = self.reduction
        if self.witness is not None:
            out["witness"] = self.witness.as_dict()
        return out


def _generator_values(Y: FinSet) -> list:
    """The empty set and the singletons of the powerset carrier Y, in its
    order: they generate Y under unions."""
    return [S for S in Y.elements if len(S._members) <= 1]


@dataclass
class Reduced:
    """The record of one object assignment: the instances it draws
    (``quantify``'s tuples of functions, or settled instances and records
    once ``instances`` settles them) stand for ``covered`` instances of the
    whole assignment, or each for one when it is None; ``full()``, when not
    None, draws the whole assignment's, and ``reduction`` names the draw."""

    instances: Iterable
    covered: Optional[int] = None
    full: Optional[Callable[[], Iterable]] = None
    reduction: Optional[str] = None


def quantify(
    universe: TestUniverse,
    symbols: Sequence[str],
    arrows: Callable[..., Sequence[tuple[FinSet, FinSet]]],
    generator_valued: Collection[int] = (),
) -> Iterator[tuple[tuple[FinSet, ...], Optional[Iterator[tuple[FinFn, ...]] | Reduced]]]:
    """The quantifier of every equation over objects and hom-sets.

    Assigns universe objects to the object ``symbols``, the first varying
    slowest, and yields ``(objects, morphisms)`` per assignment, the
    objects in the order of ``symbols``.  ``arrows(*objects)`` lists the
    (domain, codomain) carriers of the quantified arrows in the order they
    vary, the first slowest; ``morphisms`` iterates over their tuples of
    functions, or is None when a hom-set has more than ``HOM_CAP`` or
    ``arrows`` refuses (``Refused``), as for a carrier over the cap.

    The arrows at the positions ``generator_valued``, each into a powerset
    carrier, range over their generator-valued maps only
    (``TestUniverse.generators``), and ``HOM_CAP`` applies to their count:
    ``morphisms`` is then a ``Reduced`` record of the reduction
    ``GENERATOR_VALUED_F``, whose full draw is the whole hom-sets' when
    each has at most ``HOM_CAP`` functions.  The caller vouches that both
    sides of its equation preserve unions in each value of such an arrow.
    No whole hom-set of such an arrow is built unless the full draw runs.
    """
    def tuples(ends, reduced=()):
        return product(*(universe.generators(dom, cod) if i in reduced
                         else universe.hom(dom, cod) for i, (dom, cod) in enumerate(ends)))

    for objects in product(universe.objects, repeat=len(symbols)):
        try:
            ends = arrows(*objects)
        except Refused:
            yield objects, None
            continue
        whole = [len(cod) ** len(dom) for dom, cod in ends]
        drawn = [len(_generator_values(cod)) ** len(dom) if i in generator_valued else n
                 for i, ((dom, cod), n) in enumerate(zip(ends, whole))]
        if max(drawn, default=0) > HOM_CAP:
            yield objects, None
        elif not generator_valued:
            yield objects, tuples(ends)
        else:
            yield objects, Reduced(tuples(ends, generator_valued), prod(whole),
                                   partial(tuples, ends) if max(whole) <= HOM_CAP else None,
                                   GENERATOR_VALUED_F)


class Refused(Exception):
    """An instance that cannot be evaluated, such as one whose carrier is
    over the cap or whose component is missing; it counts as skipped."""


def instances(at: str, morphisms: Optional[Iterable[tuple] | Reduced],
              sides: Callable[..., tuple] | dict[str, Callable[..., tuple]],
              prepare: Optional[Callable[[], object]] = None,
              whole: Optional[Callable[[], object]] = None) -> Iterator:
    """The record of one object assignment of ``quantify``, settled.

    Its instances are ``(at, sides(*fs))`` per tuple ``fs`` of
    ``morphisms``: ``(at, None)``, which ``compare`` counts as skipped,
    when the sides refuse, or ``(at, error)``, a failing instance, when
    they do not compose.  A hom-set over the cap (``morphisms`` None) is
    one skipped instance.  ``sides`` is a dict from a label, appended to
    ``at``, to the sides of each equation when an instance states several.
    ``prepare`` builds what every instance of the assignment shares, once,
    and ``sides`` takes it first; when it refuses, every instance is
    skipped.  A ``Reduced`` ``morphisms`` keeps its count, full draw and
    reduction.  ``whole`` builds on the whole carrier what ``prepare`` builds
    on its join generators: each instance is then a record whose full draw
    is itself on the whole carrier, and ``whole`` runs on the first draw.
    """
    if morphisms is None:
        return iter([(at, None)])
    labelled = sides.items() if isinstance(sides, dict) else [("", sides)]

    def bound(make: Optional[Callable[[], object]]) -> list[tuple]:
        equations = [(at + label, eq) for label, eq in labelled]
        try:
            shared = make and make()
        except Refused:
            return [(where, None) for where, _ in equations]
        return equations if make is None else [(w, partial(eq, shared)) for w, eq in equations]

    def settle(tuples: Iterable[tuple], equations: list[tuple]) -> Iterator[tuple]:
        for fs in tuples:
            for where, eq in equations:
                settled = None
                if eq is not None:
                    try:
                        settled = eq(*fs)
                    except Refused:
                        pass
                    except CompositionError as exc:
                        settled = exc
                yield where, settled

    equations = bound(prepare)
    if whole is not None:
        on_whole = cache(lambda: bound(whole))

        def one(fs: tuple) -> Reduced:
            return Reduced(list(settle([fs], equations)), full=lambda: settle([fs], on_whole()))

        return iter([Reduced(map(one, morphisms), reduction=JOIN_GENERATORS)])
    if type(morphisms) is not Reduced:
        return iter([Reduced(settle(morphisms, equations))])
    full = morphisms.full
    return iter([Reduced(settle(morphisms.instances, equations),
                         morphisms.covered * len(equations),
                         None if full is None else lambda: settle(full(), equations),
                         morphisms.reduction)])


def compare(axiom: str, instances: Iterable) -> AxiomVerdict:
    """The compare-and-witness kernel of every checker.

    ``instances`` yields ``(at, sides)`` per instance, or the record of an
    object assignment (``instances``): ``sides`` is None for an instance
    that could not be evaluated, which counts as skipped, a
    ``CompositionError`` for one whose sides could not be composed, which
    fails, or the pair (lhs, rhs) of element maps over one source carrier,
    either dicts filled in canonical carrier order or ``FinFn`` tables.
    The witness comes from the first instance that fails: the first
    element, in that order, where its sides differ, or for ``FinFn`` sides
    that agree on every element, the boundary they differ in.  The verdict
    passes when there is no witness and at least one instance was
    evaluated; it names the reduction of the records it settled.
    """
    tally = [0, 0, None]  # checked, skipped, reduction
    witness = _settle(Reduced(instances), tally, None)
    checked, skipped, reduction = tally
    return AxiomVerdict(axiom, passed=witness is None and checked > 0, checked=checked,
                        skipped=skipped, witness=witness, reduction=reduction)


def _settle(r: Reduced, tally: list, witness: Optional[Witness]) -> Optional[Witness]:
    """The one settle rule: adds what record ``r`` covers to ``tally``
    (checked, skipped, reduction) and returns ``witness``, or when it is
    None the first one they show, as the whole assignment would.

    With no refused instance the ``covered`` count as checked: one fails
    exactly when a drawn instance does.  A refused one stands for an
    unknown number of them, so ``r`` then settles as its full draw, if any.
    A first witness is taken again from the full draw, if any.
    """
    own = [0, 0, r.reduction]
    found = witness
    for item in r.instances:
        if type(item) is Reduced:
            found = _settle(item, own, found)
        elif item[1] is None:
            own[1] += 1
        else:
            own[0] += 1
            if found is None:
                found = _difference(*item)
    if r.full is not None and own[1] and r.covered is not None:
        return _settle(Reduced(r.full(), reduction=r.reduction), tally, witness)
    if r.full is not None and found is not witness:
        found = next(filter(None, (_difference(*i) for i in r.full() if i[1] is not None)), found)
    tally[0] += own[0] if own[1] or r.covered is None else r.covered
    tally[1] += own[1]
    tally[2] = tally[2] or own[2]
    return found


def _difference(at: str, sides) -> Optional[Witness]:
    if isinstance(sides, CompositionError):
        return Witness(at, "composition", f"codomain {sides.cod!r}", f"domain {sides.dom!r}")
    lhs, rhs = sides
    if lhs == rhs:
        return None
    boundary = None
    if isinstance(lhs, FinFn):
        if lhs.dom != rhs.dom:
            return Witness(at, "domain", repr(lhs.dom), repr(rhs.dom))
        boundary = Witness(at, "codomain", repr(lhs.cod), repr(rhs.cod))
        lhs, rhs = dict(lhs.pairs), dict(rhs.pairs)
    for e, v in lhs.items():
        w = rhs[e]
        if w != v:
            shown = element_repr(v)
            if shown == element_repr(w):
                # Distinct objects with one structure: an element escaped the
                # intern table, so identity equality cannot be trusted.
                raise RuntimeError(f"at {at}, element {element_repr(e)}: two distinct "
                                   f"elements print as {shown}; one bypassed the intern table")
            return Witness(at, element_repr(e), shown, element_repr(w))
    return boundary


@dataclass
class LawReport:
    law: str
    universe: str
    verdicts: list[AxiomVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Every axiom passed with at least one evaluated instance."""
        return all(v.passed for v in self.verdicts)

    @property
    def no_counterexample(self) -> bool:
        """No witness found; axioms with only oversize instances do not
        veto.  This is the filter predicate for candidate search."""
        return all(v.witness is None for v in self.verdicts)

    def verdict(self, axiom: str) -> AxiomVerdict:
        for v in self.verdicts:
            if v.axiom == axiom:
                return v
        raise KeyError(axiom)

    def summary(self) -> str:
        lines = [f"{self.law} on {self.universe}"]
        for v in self.verdicts:
            mark = "pass" if v.passed else "FAIL"
            extra = f" (checked={v.checked}, skipped={v.skipped})"
            if v.witness is not None:
                extra += f" witness at {v.witness.at}: {v.witness.element}: {v.witness.lhs} != {v.witness.rhs}"
            lines.append(f"  [{mark}] {v.axiom}{extra}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "law": self.law,
            "universe": self.universe,
            "ok": self.ok,
            "verdicts": [v.as_dict() for v in self.verdicts],
        }
