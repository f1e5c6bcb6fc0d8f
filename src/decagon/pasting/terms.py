"""Pasting terms and their boundary computation.

Grammar: CellRef(name) | IdCell(path) | Whisker(left, t, right)
| VComp(upper, lower) | HComp(t1, t2) | Inverse(CellRef(name)).
Every cell generator is invertible; inversion applies to generator
references only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .words import Path, Word


@dataclass(frozen=True)
class CellGen:
    """Generating 2-cell between parallel paths."""

    name: str
    src: Path
    tgt: Path

    def __post_init__(self):
        if self.src.start != self.tgt.start or self.src.end != self.tgt.end:
            raise ValueError(
                f"cell {self.name}: source {self.src.start}->{self.src.end} and "
                f"target {self.tgt.start}->{self.tgt.end} are not parallel"
            )


@dataclass(frozen=True)
class CellRef:
    name: str


@dataclass(frozen=True)
class IdCell:
    path: Path


@dataclass(frozen=True)
class Whisker:
    left: Word
    term: "PastingTerm"
    right: Word


@dataclass(frozen=True)
class VComp:
    upper: "PastingTerm"
    lower: "PastingTerm"


@dataclass(frozen=True)
class HComp:
    first: "PastingTerm"
    second: "PastingTerm"


@dataclass(frozen=True)
class Inverse:
    term: CellRef


PastingTerm = Union[CellRef, IdCell, Whisker, VComp, HComp, Inverse]


class BoundaryError(ValueError):
    pass


def boundary(t: PastingTerm, sig) -> tuple[Path, Path]:
    """Source and target paths of a term; fails on any junction mismatch."""
    if isinstance(t, CellRef):
        cell = sig.cells.get(t.name)
        if cell is None:
            raise BoundaryError(f"unknown cell {t.name!r}")
        return cell.src, cell.tgt
    if isinstance(t, Inverse):
        cell = sig.cells.get(t.term.name)
        if cell is None:
            raise BoundaryError(f"unknown cell {t.term.name!r}")
        return cell.tgt, cell.src
    if isinstance(t, IdCell):
        return t.path, t.path
    if isinstance(t, Whisker):
        src, tgt = boundary(t.term, sig)
        return src.whisker(t.left, t.right), tgt.whisker(t.left, t.right)
    if isinstance(t, VComp):
        s1, t1 = boundary(t.upper, sig)
        s2, t2 = boundary(t.lower, sig)
        if t1 != s2:
            raise BoundaryError(
                f"vertical junction mismatch:\n  upper target {t1}\n  lower source {s2}"
            )
        return s1, t2
    if isinstance(t, HComp):
        s1, t1 = boundary(t.first, sig)
        s2, t2 = boundary(t.second, sig)
        if s1.end != s2.start or t1.end != t2.start:
            raise BoundaryError(
                f"horizontal junction mismatch: {s1.end}/{t1.end} vs {s2.start}/{t2.start}"
            )
        return s1.then(s2), t1.then(t2)
    raise BoundaryError(f"not a pasting term: {t!r}")


def cells_used(t: PastingTerm) -> set[str]:
    """Names of cell generators occurring anywhere in the term."""
    if isinstance(t, CellRef):
        return {t.name}
    if isinstance(t, Inverse):
        return {t.term.name}
    if isinstance(t, IdCell):
        return set()
    if isinstance(t, Whisker):
        return cells_used(t.term)
    if isinstance(t, (VComp, HComp)):
        a = t.upper if isinstance(t, VComp) else t.first
        b = t.lower if isinstance(t, VComp) else t.second
        return cells_used(a) | cells_used(b)
    return set()
