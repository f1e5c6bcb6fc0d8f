"""Words, arrow generators, whiskered atoms and paths.

Words over the functor alphabet are the 0-cells; concatenation is their
monoid operation and the empty word is the identity functor.  An arrow
atom is a generator whiskered by a prefix and suffix word; a path is a
composable sequence of atoms and carries its start word explicitly so the
empty path at a word is representable.

Words, arrow declarations, atoms and paths print as signature files write
them (``T P``, ``epsilon``, ``(arrow m (T T) (T))``,
``[T . lambda . epsilon]``, ``@ T P``), so what a message shows can be
read back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


# The characters that are tokens by themselves in a signature file, so
# that no symbol contains one.
_PUNCTUATION = frozenset("()[];.@")


@dataclass(frozen=True)
class Word:
    symbols: tuple[str, ...] = ()

    @staticmethod
    def read(tokens: list) -> "Word":
        """The word of a list of tokens, each one symbol, or the empty word
        of the lone token ``epsilon``: the one word reader, of signature
        files and of ``of``."""
        if len(tokens) == 1 and tokens[0] == "epsilon":
            return Word()
        for tok in tokens:
            if tok == "epsilon" or not isinstance(tok, str) or not _PUNCTUATION.isdisjoint(tok):
                raise ValueError(f"not a word symbol: {tok!r}")
        return Word(tuple(tokens))

    @staticmethod
    def of(text: str) -> "Word":
        """Read a word as it prints: symbols separated by whitespace, and
        'epsilon' or '' for the empty word."""
        return Word.read(text.split())

    def __add__(self, other: "Word") -> "Word":
        return Word(self.symbols + other.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def startswith(self, prefix: "Word") -> bool:
        return self.symbols[: len(prefix)] == prefix.symbols

    def endswith(self, suffix: "Word") -> bool:
        return len(suffix) == 0 or self.symbols[-len(suffix):] == suffix.symbols

    def drop_prefix(self, prefix: "Word") -> "Word":
        if not self.startswith(prefix):
            raise ValueError(f"{self} does not start with {prefix}")
        return Word(self.symbols[len(prefix):])

    def drop_suffix(self, suffix: "Word") -> "Word":
        if not self.endswith(suffix):
            raise ValueError(f"{self} does not end with {suffix}")
        return Word(self.symbols[: len(self.symbols) - len(suffix)])

    def __str__(self) -> str:
        return " ".join(self.symbols) or "epsilon"


@dataclass(frozen=True)
class ArrowGen:
    """Generating 1-cell with declared boundary words."""

    name: str
    src: Word
    tgt: Word

    def __str__(self):
        return f"(arrow {self.name} ({self.src}) ({self.tgt}))"

    __repr__ = __str__


@dataclass(frozen=True)
class ArrowAtom:
    """prefix . gen . suffix, acting on the word interval it occupies."""

    prefix: Word
    gen: ArrowGen
    suffix: Word

    # built on first use and kept: equality and hashing read the fields only
    @cached_property
    def src(self) -> Word:
        return self.prefix + self.gen.src + self.suffix

    @cached_property
    def tgt(self) -> Word:
        return self.prefix + self.gen.tgt + self.suffix

    def whisker(self, left: Word, right: Word) -> "ArrowAtom":
        return ArrowAtom(left + self.prefix, self.gen, self.suffix + right)

    def __str__(self):
        return f"[{self.prefix} . {self.gen.name} . {self.suffix}]"

    __repr__ = __str__


@dataclass(frozen=True)
class Path:
    """Composable atom sequence; ``start`` names the word of an empty path."""

    start: Word
    atoms: tuple[ArrowAtom, ...] = ()

    def __post_init__(self):
        at = self.start
        for a in self.atoms:
            if a.src != at:
                raise ValueError(f"path breaks at {a}: expected source {at}, got {a.src}")
            at = a.tgt

    @property
    def end(self) -> Word:
        return self.atoms[-1].tgt if self.atoms else self.start

    def __len__(self) -> int:
        return len(self.atoms)

    def whisker(self, left: Word, right: Word) -> "Path":
        return Path(left + self.start + right, tuple(a.whisker(left, right) for a in self.atoms))

    def then(self, other: "Path") -> "Path":
        if other.start != self.end:
            raise ValueError(f"paths do not chain: {self.end} vs {other.start}")
        return Path(self.start, self.atoms + other.atoms)

    def __str__(self):
        return " ; ".join(map(str, self.atoms)) if self.atoms else f"@ {self.start}"

    def __repr__(self):
        return f"Path({self})"
