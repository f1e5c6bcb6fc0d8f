"""Signatures, the textual term format, and the path rewrite script.

The textual grammar: words are whitespace-separated symbols ``T P T``
(``epsilon`` when empty); atoms are ``[T . lambda . epsilon]`` (prefix,
generator, suffix); paths are ``;``-separated atoms, or ``@ W`` for the
identity path at a word; pasting terms are s-expressions such as
``(vcomp (whisker T (cell omega3) epsilon) (id @ T P))``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .normalform import Occurrence, apply_occurrence, occurrences_to_term
from .terms import (
    BoundaryError,
    CellGen,
    CellRef,
    HComp,
    IdCell,
    Inverse,
    PastingTerm,
    VComp,
    Whisker,
    boundary,
)
from .words import ArrowAtom, ArrowGen, Path, Word


@dataclass
class Signature:
    alphabet: tuple[str, ...]
    arrows: dict[str, ArrowGen]
    cells: dict[str, CellGen]
    axioms: dict[str, tuple[PastingTerm, PastingTerm]] = field(default_factory=dict)

    def validate(self) -> None:
        """Every word is over the alphabet, every referenced name resolves
        and every axiom pair is parallel."""
        def over_alphabet(where: str, *paths: Path) -> None:
            for p in paths:
                for w in [p.start] + [atom.tgt for atom in p.atoms]:
                    foreign = [s for s in w.symbols if s not in self.alphabet]
                    if foreign:
                        raise BoundaryError(f"{where} uses {foreign[0]!r}, which is not in the alphabet")

        for a in self.arrows.values():
            over_alphabet(f"arrow {a.name}", Path(a.src), Path(a.tgt))
        for cell in self.cells.values():
            over_alphabet(f"cell {cell.name}", cell.src, cell.tgt)
            for path in (cell.src, cell.tgt):
                for atom in path.atoms:
                    if atom.gen.name not in self.arrows:
                        raise BoundaryError(f"cell {cell.name} uses unknown arrow {atom.gen.name}")
                    if self.arrows[atom.gen.name] != atom.gen:
                        raise BoundaryError(f"cell {cell.name} redeclares arrow {atom.gen.name}")
        for name, (lhs, rhs) in self.axioms.items():
            bl = boundary(lhs, self)
            br = boundary(rhs, self)
            over_alphabet(f"axiom {name}", *bl, *br)
            if bl != br:
                raise BoundaryError(
                    f"axiom {name} is not parallel:\n  lhs {bl[0]} => {bl[1]}\n  rhs {br[0]} => {br[1]}"
                )

    def copy(self) -> "Signature":
        """The same signature with tables of its own, for a derivation to extend."""
        return Signature(self.alphabet, dict(self.arrows), dict(self.cells), dict(self.axioms))

    def interchanger(self, left: ArrowGen, middle: Word, right: ArrowGen) -> CellGen:
        """The square that slides two generators past each other across a
        middle word, registered on first use; in strict instances it holds
        by naturality."""
        mid = "".join(middle.symbols) or "e"
        name = f"xc-{left.name}-{mid}-{right.name}"
        start = left.src + middle + right.src
        src = Path(start, (ArrowAtom(Word(()), left, middle + right.src),
                           ArrowAtom(left.tgt + middle, right, Word(()))))
        tgt = Path(start, (ArrowAtom(left.src + middle, right, Word(())),
                           ArrowAtom(Word(()), left, middle + right.tgt)))
        cell = self.cells.setdefault(name, CellGen(name, src, tgt))
        if (cell.src, cell.tgt) != (src, tgt):
            raise BoundaryError(f"interchanger {name} redeclared with different boundary")
        return cell


class PathScript:
    """Rewrites a path step by step, recording the pasting it performs.

    ``apply`` matches a declared cell at an atom index (the whisker words
    are inferred from the matched atoms, or given explicitly for cells with
    an empty side, as text for ``Word.of``); ``slide`` interchanges two
    adjacent atoms acting on disjoint word intervals, registering the
    interchanger cell it needs in ``sig``.
    """

    def __init__(self, sig: Signature, source: Path):
        self.sig = sig
        self.source = source
        self.path = source
        self.occs: list[Occurrence] = []

    def _atom(self, i: int) -> ArrowAtom:
        if not 0 <= i < len(self.path):
            raise BoundaryError(f"no atom {i} in {self.path}")
        return self.path.atoms[i]

    def apply(self, name: str, at: int, inverse: bool = False, left: str | None = None) -> "PathScript":
        cell = self.sig.cells[name]
        matched = cell.tgt if inverse else cell.src
        if left is not None:
            lw = Word.of(left)
        elif len(matched):
            first_inner = matched.atoms[0]
            first_actual = self._atom(at)
            if first_actual.gen != first_inner.gen or not first_actual.prefix.endswith(first_inner.prefix):
                raise BoundaryError(f"apply {name} at {at}: {first_actual} does not match {first_inner}")
            lw = first_actual.prefix.drop_suffix(first_inner.prefix)
        else:
            raise BoundaryError(f"apply {name}: empty matched side needs an explicit left word")
        occ = Occurrence(at, lw, name, inverse)
        self.path, _ = apply_occurrence(self.sig, self.path, occ)
        self.occs.append(occ)
        return self

    def slide(self, i: int) -> "PathScript":
        a = self._atom(i)
        b = self._atom(i + 1)
        pa, sa, ta = len(a.prefix), len(a.gen.src), len(a.gen.tgt)
        pb, sb = len(b.prefix), len(b.gen.src)
        word = a.src
        if pb >= pa + ta:
            # b acts right of a: a is the left generator
            rb = pb - ta + sa
            middle = Word(word.symbols[pa + sa: rb])
            cell = self.sig.interchanger(a.gen, middle, b.gen)
            occ = Occurrence(i, a.prefix, cell.name, False)
        elif pb + sb <= pa:
            # b acts left of a: b is the left generator
            middle = Word(word.symbols[pb + sb: pa])
            cell = self.sig.interchanger(b.gen, middle, a.gen)
            occ = Occurrence(i, Word(word.symbols[:pb]), cell.name, True)
        else:
            raise BoundaryError(f"atoms {a} and {b} overlap; cannot slide")
        self.path, _ = apply_occurrence(self.sig, self.path, occ)
        self.occs.append(occ)
        return self

    def done(self, expect: Path | None = None) -> PastingTerm:
        if expect is not None and self.path != expect:
            raise BoundaryError(f"script ended at\n  {self.path}\nexpected\n  {expect}")
        return occurrences_to_term(self.sig, self.source, self.occs)


# ---------------------------------------------------------------------------
# textual format


def term_to_text(t: PastingTerm) -> str:
    """The s-expression of a pasting term, as signature files write it."""
    if isinstance(t, CellRef):
        return f"(cell {t.name})"
    if isinstance(t, Inverse):
        return f"(inv (cell {t.term.name}))"
    if isinstance(t, IdCell):
        return f"(id {t.path})"
    if isinstance(t, Whisker):
        return f"(whisker {t.left} {term_to_text(t.term)} {t.right})"
    if isinstance(t, VComp):
        return f"(vcomp {term_to_text(t.upper)} {term_to_text(t.lower)})"
    if isinstance(t, HComp):
        return f"(hcomp {term_to_text(t.first)} {term_to_text(t.second)})"
    raise ValueError(f"not a term: {t!r}")


def signature_to_text(sig: Signature) -> str:
    lines = ["(signature", "  (version 1)", f"  (alphabet {' '.join(sig.alphabet)})"]
    for a in sig.arrows.values():
        lines.append(f"  {a}")
    for c in sig.cells.values():
        lines.append(f"  (cell {c.name}")
        lines.append(f"    (src {c.src})")
        lines.append(f"    (tgt {c.tgt}))")
    for name, (lhs, rhs) in sig.axioms.items():
        lines.append(f"  (axiom {name}")
        lines.append(f"    {term_to_text(lhs)}")
        lines.append(f"    {term_to_text(rhs)})")
    lines.append(")")
    return "\n".join(lines) + "\n"


# Punctuation is a token by itself, and so is any other run of characters
# up to whitespace or punctuation; ``Word.read`` refuses punctuation.
_TOKEN = re.compile(r"[()\[\];.@]|[^\s()\[\];.@]+")
# Deepest parenthesis nesting a signature may have.  Terms are read, checked
# and evaluated by recursion, one frame per level, so a deeper file is
# refused here rather than overflowing the interpreter's stack later; the
# shipped assets nest 18 deep.
MAX_NESTING = 500


def _read(text: str) -> list:
    """The forms of ``text``: each parenthesised group becomes the list of
    its tokens and groups; brackets, dots, ``;`` and ``@`` stay tokens."""
    stack: list[list] = [[]]
    for tok in _TOKEN.findall(text):
        if tok == "(":
            if len(stack) > MAX_NESTING:
                raise ValueError(f"forms nest deeper than {MAX_NESTING} levels")
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise ValueError("unmatched ')'")
            group = stack.pop()
            stack[-1].append(group)
        else:
            stack[-1].append(tok)
    if len(stack) > 1:
        raise ValueError("unexpected end of signature")
    return stack[0]


def _atom(tokens: list, arrows: dict[str, ArrowGen]) -> ArrowAtom:
    """``[ prefix . name . suffix ]``: the token between the dots is the
    arrow, so an arrow may be named ``epsilon``."""
    if tokens[:1] == ["["] and tokens[-1:] == ["]"] and "." in tokens:
        i = tokens.index(".")
        match tokens[i: i + 3]:
            case [".", str(name), "."] if name in arrows:
                return ArrowAtom(Word.read(tokens[1:i]), arrows[name], Word.read(tokens[i + 3: -1]))
            case [".", str(name), "."]:
                raise ValueError(f"unknown arrow {name!r}")
    raise ValueError(f"malformed atom {' '.join(map(str, tokens))!r}")


def _path(tokens: list, arrows: dict[str, ArrowGen]) -> Path:
    if tokens[:1] == ["@"]:
        return Path(Word.read(tokens[1:]))
    atoms, start = [], 0
    for i, tok in enumerate(tokens + [";"]):
        if tok == ";":
            atoms.append(_atom(tokens[start:i], arrows))
            start = i + 1
    return Path(atoms[0].src, tuple(atoms))


def _term(form, arrows: dict[str, ArrowGen]) -> PastingTerm:
    match form:
        case ["cell", str(name)]:
            return CellRef(name)
        case ["inv", ["cell", str(name)]]:
            return Inverse(CellRef(name))
        case ["id", *path]:
            return IdCell(_path(path, arrows))
        case ["whisker", *parts] if any(isinstance(p, list) for p in parts):
            i = next(i for i, p in enumerate(parts) if isinstance(p, list))
            return Whisker(Word.read(parts[:i]), _term(parts[i], arrows), Word.read(parts[i + 1:]))
        case ["vcomp", first, *rest]:
            out = _term(first, arrows)
            for t in rest:
                out = VComp(out, _term(t, arrows))
            return out
        case ["hcomp", first, second]:
            return HComp(_term(first, arrows), _term(second, arrows))
    raise ValueError(f"malformed term {form!r}")


def _declare(table: dict, kind: str, name: str, value) -> None:
    if name in table:
        raise ValueError(f"{kind} {name!r} declared twice")
    table[name] = value


def parse_signature(text: str) -> Signature:
    match _read(text):
        case [["signature", *sections]]:
            pass
        case _:
            raise ValueError("a signature is one (signature ...) form")
    sig = Signature((), {}, {})
    for section in sections:
        match section:
            case ["version", "1"]:
                pass
            case ["version", version]:
                raise ValueError(f"unsupported signature version {version!r}")
            case ["alphabet", *symbols]:
                sig.alphabet = Word.read(symbols).symbols
            case ["arrow", str(name), list(src), list(tgt)]:
                _declare(sig.arrows, "arrow", name, ArrowGen(name, Word.read(src), Word.read(tgt)))
            case ["cell", str(name), ["src", *src], ["tgt", *tgt]]:
                cell = CellGen(name, _path(src, sig.arrows), _path(tgt, sig.arrows))
                _declare(sig.cells, "cell", name, cell)
            case ["axiom", str(name), lhs, rhs]:
                _declare(sig.axioms, "axiom", name, (_term(lhs, sig.arrows), _term(rhs, sig.arrows)))
            case _:
                raise ValueError(f"malformed section {section!r}")
    sig.validate()
    return sig
