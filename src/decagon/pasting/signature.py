"""Signatures, the textual term format, and the path rewrite script builder.

The textual grammar: words are juxtaposed symbols ``T P T`` (``epsilon``
when empty); atoms are ``[T . lambda . epsilon]`` (prefix, generator,
suffix); paths are ``;``-separated atoms, or ``@ W`` for the identity path
at a word; pasting terms are s-expressions such as
``(vcomp (whisker T (cell omega3) epsilon) (id @ T P))``.
"""

from __future__ import annotations

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
        """Every referenced name resolves and every axiom pair is parallel."""
        for cell in self.cells.values():
            for path in (cell.src, cell.tgt):
                for atom in path.atoms:
                    if atom.gen.name not in self.arrows:
                        raise BoundaryError(f"cell {cell.name} uses unknown arrow {atom.gen.name}")
                    if self.arrows[atom.gen.name] != atom.gen:
                        raise BoundaryError(f"cell {cell.name} redeclares arrow {atom.gen.name}")
        for name, (lhs, rhs) in self.axioms.items():
            bl = boundary(lhs, self)
            br = boundary(rhs, self)
            if bl != br:
                raise BoundaryError(
                    f"axiom {name} is not parallel:\n  lhs {bl[0]} => {bl[1]}\n  rhs {br[0]} => {br[1]}"
                )


class SignatureBuilder:
    """Accumulates generators and axioms; interchanger cells self-register."""

    def __init__(self, alphabet: str):
        self.alphabet = tuple(alphabet.replace(" ", ""))
        self.arrows: dict[str, ArrowGen] = {}
        self.cells: dict[str, CellGen] = {}
        self.axioms: dict[str, tuple[PastingTerm, PastingTerm]] = {}

    def atom(self, prefix: str, gen_name: str, suffix: str) -> ArrowAtom:
        return ArrowAtom(Word.of(prefix), self.arrows[gen_name], Word.of(suffix))

    def path(self, atoms: list[ArrowAtom], start: str | None = None) -> Path:
        if not atoms:
            return Path(Word.of(start or ""))
        return Path(atoms[0].src, tuple(atoms))

    def cell(self, name: str, src: Path, tgt: Path, invertible: bool = True) -> CellGen:
        gen = CellGen(name, src, tgt, invertible)
        self.cells[name] = gen
        return gen

    def interchanger(self, left: ArrowGen, middle: Word, right: ArrowGen) -> CellGen:
        """The square that slides two generators past each other across a
        middle word; in strict instances it holds by naturality."""
        mid = "".join(middle.symbols) or "e"
        name = f"xc-{left.name}-{mid}-{right.name}"
        src = Path(
            left.src + middle + right.src,
            (
                ArrowAtom(Word(()), left, middle + right.src),
                ArrowAtom(left.tgt + middle, right, Word(())),
            ),
        )
        tgt = Path(
            left.src + middle + right.src,
            (
                ArrowAtom(left.src + middle, right, Word(())),
                ArrowAtom(Word(()), left, middle + right.tgt),
            ),
        )
        existing = self.cells.get(name)
        if existing is not None:
            if existing.src != src or existing.tgt != tgt:
                raise BoundaryError(f"interchanger {name} redeclared with different boundary")
            return existing
        return self.cell(name, src, tgt)

    def build(self) -> Signature:
        sig = Signature(self.alphabet, dict(self.arrows), dict(self.cells), dict(self.axioms))
        sig.validate()
        return sig


class PathScript:
    """Rewrites a path step by step, recording the pasting it performs.

    ``apply`` matches a declared cell at an atom index (the whisker words
    are inferred from the matched atoms, or given explicitly for cells with
    an empty side); ``slide`` interchanges two adjacent atoms acting on
    disjoint word intervals, registering the interchanger cell it needs.
    """

    def __init__(self, builder: SignatureBuilder, source: Path):
        self.builder = builder
        self.source = source
        self.path = source
        self.occs: list[Occurrence] = []

    def _sig_view(self):
        return Signature(self.builder.alphabet, self.builder.arrows, self.builder.cells, {})

    def apply(self, name: str, at: int, inverse: bool = False, left: str | None = None) -> "PathScript":
        cell = self.builder.cells[name]
        matched = cell.tgt if inverse else cell.src
        if left is not None:
            lw = Word.of(left)
        elif len(matched):
            first_inner = matched.atoms[0]
            first_actual = self.path.atoms[at]
            if first_actual.gen != first_inner.gen:
                raise BoundaryError(
                    f"apply {name} at {at}: generator {first_actual.gen.name} != {first_inner.gen.name}"
                )
            lw = first_actual.prefix.drop_suffix(first_inner.prefix)
        else:
            raise BoundaryError(f"apply {name}: empty matched side needs an explicit left word")
        occ = Occurrence(at, lw, name, inverse)
        self.path, _ = apply_occurrence(self._sig_view(), self.path, occ)
        self.occs.append(occ)
        return self

    def slide(self, i: int) -> "PathScript":
        a = self.path.atoms[i]
        b = self.path.atoms[i + 1]
        pa, sa, ta = len(a.prefix), len(a.gen.src), len(a.gen.tgt)
        pb, sb = len(b.prefix), len(b.gen.src)
        word = a.src
        if pb >= pa + ta:
            # b acts right of a: a is the left generator
            rb = pb - ta + sa
            middle = Word(word.symbols[pa + sa: rb])
            cell = self.builder.interchanger(a.gen, middle, b.gen)
            occ = Occurrence(i, a.prefix, cell.name, False)
        elif pb + sb <= pa:
            # b acts left of a: b is the left generator
            middle = Word(word.symbols[pb + sb: pa])
            cell = self.builder.interchanger(b.gen, middle, a.gen)
            occ = Occurrence(i, Word(word.symbols[:pb]), cell.name, True)
        else:
            raise BoundaryError(f"atoms {a} and {b} overlap; cannot slide")
        self.path, _ = apply_occurrence(self._sig_view(), self.path, occ)
        self.occs.append(occ)
        return self

    def done(self, expect: Path | None = None) -> PastingTerm:
        if expect is not None and self.path != expect:
            raise BoundaryError(f"script ended at\n  {self.path}\nexpected\n  {expect}")
        return occurrences_to_term(self._sig_view(), self.source, self.occs)


# ---------------------------------------------------------------------------
# textual format


def _word_str(w: Word) -> str:
    return " ".join(w.symbols) if w.symbols else "epsilon"


def _path_str(p: Path) -> str:
    if not p.atoms:
        return "@ " + _word_str(p.start)
    return " ; ".join(
        f"[{_word_str(a.prefix)} . {a.gen.name} . {_word_str(a.suffix)}]" for a in p.atoms
    )


def term_to_text(t: PastingTerm) -> str:
    """The s-expression of a pasting term, as signature files write it."""
    if isinstance(t, CellRef):
        return f"(cell {t.name})"
    if isinstance(t, Inverse):
        return f"(inv (cell {t.term.name}))"
    if isinstance(t, IdCell):
        return f"(id {_path_str(t.path)})"
    if isinstance(t, Whisker):
        return f"(whisker {_word_str(t.left)} {term_to_text(t.term)} {_word_str(t.right)})"
    if isinstance(t, VComp):
        return f"(vcomp {term_to_text(t.upper)} {term_to_text(t.lower)})"
    if isinstance(t, HComp):
        return f"(hcomp {term_to_text(t.first)} {term_to_text(t.second)})"
    raise ValueError(f"not a term: {t!r}")


def signature_to_text(sig: Signature) -> str:
    lines = ["(signature", "  (version 1)", f"  (alphabet {' '.join(sig.alphabet)})"]
    for a in sig.arrows.values():
        lines.append(f"  (arrow {a.name} ({_word_str(a.src)}) ({_word_str(a.tgt)}))")
    for c in sig.cells.values():
        lines.append(f"  (cell {c.name}")
        lines.append(f"    (src {_path_str(c.src)})")
        lines.append(f"    (tgt {_path_str(c.tgt)}))")
    for name, (lhs, rhs) in sig.axioms.items():
        lines.append(f"  (axiom {name}")
        lines.append(f"    {term_to_text(lhs)}")
        lines.append(f"    {term_to_text(rhs)})")
    lines.append(")")
    return "\n".join(lines) + "\n"


def _tokenize(text: str) -> list[str]:
    out = []
    cur = []
    for ch in text:
        if ch in "()[];.@":
            if cur:
                out.append("".join(cur))
                cur = []
            out.append(ch)
        elif ch.isspace():
            if cur:
                out.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out


class _Parser:
    def __init__(self, tokens: list[str]):
        self.toks = tokens
        self.pos = 0

    def peek(self) -> str:
        if self.pos >= len(self.toks):
            raise ValueError("unexpected end of signature")
        return self.toks[self.pos]

    def next(self) -> str:
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ValueError(f"expected {tok!r}, got {got!r} at {self.pos}")

    def word_until(self, stops: set[str]) -> Word:
        syms = []
        while self.peek() not in stops:
            tok = self.next()
            if tok != "epsilon":
                syms.append(tok)
        return Word(tuple(syms))

    def atom(self, arrows: dict[str, ArrowGen]) -> ArrowAtom:
        self.expect("[")
        prefix = self.word_until({"."})
        self.expect(".")
        name = self.next()
        if name not in arrows:
            raise ValueError(f"unknown arrow {name!r} at {self.pos}")
        self.expect(".")
        suffix = self.word_until({"]"})
        self.expect("]")
        return ArrowAtom(prefix, arrows[name], suffix)

    def path(self, arrows: dict[str, ArrowGen], stops: set[str]) -> Path:
        if self.peek() == "@":
            self.next()
            return Path(self.word_until(stops))
        atoms = [self.atom(arrows)]
        while self.peek() == ";":
            self.next()
            atoms.append(self.atom(arrows))
        return Path(atoms[0].src, tuple(atoms))

    def term(self, arrows: dict[str, ArrowGen]) -> PastingTerm:
        self.expect("(")
        head = self.next()
        if head == "cell":
            name = self.next()
            self.expect(")")
            return CellRef(name)
        if head == "inv":
            inner = self.term(arrows)
            self.expect(")")
            if not isinstance(inner, CellRef):
                raise ValueError("inv applies to cell references only")
            return Inverse(inner)
        if head == "id":
            p = self.path(arrows, {")"})
            self.expect(")")
            return IdCell(p)
        if head == "whisker":
            left = self.word_until({"("})
            inner = self.term(arrows)
            right = self.word_until({")"})
            self.expect(")")
            return Whisker(left, inner, right)
        if head == "vcomp":
            terms = []
            while self.peek() == "(":
                terms.append(self.term(arrows))
            self.expect(")")
            if not terms:
                raise ValueError("vcomp needs at least one term")
            out = terms[0]
            for t in terms[1:]:
                out = VComp(out, t)
            return out
        if head == "hcomp":
            first = self.term(arrows)
            second = self.term(arrows)
            self.expect(")")
            return HComp(first, second)
        raise ValueError(f"unknown term head {head!r}")


def parse_signature(text: str) -> Signature:
    p = _Parser(_tokenize(text))
    p.expect("(")
    p.expect("signature")
    alphabet: tuple[str, ...] = ()
    arrows: dict[str, ArrowGen] = {}
    cells: dict[str, CellGen] = {}
    axioms: dict[str, tuple[PastingTerm, PastingTerm]] = {}
    while p.peek() == "(":
        p.next()
        head = p.next()
        if head == "version":
            p.next()
            p.expect(")")
        elif head == "alphabet":
            syms = []
            while p.peek() != ")":
                syms.append(p.next())
            alphabet = tuple(syms)
            p.expect(")")
        elif head == "arrow":
            name = p.next()
            p.expect("(")
            src = p.word_until({")"})
            p.expect(")")
            p.expect("(")
            tgt = p.word_until({")"})
            p.expect(")")
            p.expect(")")
            arrows[name] = ArrowGen(name, src, tgt)
        elif head == "cell":
            name = p.next()
            p.expect("(")
            p.expect("src")
            src = p.path(arrows, {")"})
            p.expect(")")
            p.expect("(")
            p.expect("tgt")
            tgt = p.path(arrows, {")"})
            p.expect(")")
            p.expect(")")
            cells[name] = CellGen(name, src, tgt)
        elif head == "axiom":
            name = p.next()
            lhs = p.term(arrows)
            rhs = p.term(arrows)
            p.expect(")")
            axioms[name] = (lhs, rhs)
        else:
            raise ValueError(f"unknown section {head!r}")
    p.expect(")")
    sig = Signature(alphabet, arrows, cells, axioms)
    sig.validate()
    return sig
