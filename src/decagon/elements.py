"""Canonical finite sets, structured elements, and total functions.

Elements are closed structured terms (atoms, tagged sums, pairs, subsets,
function tables).  A fixed total order on terms, by constructor tag first
and then recursively, makes every carrier canonical: two equal sets always
have identical representations.  All values are immutable after
construction.

Elements are hash-consed: each constructor looks its structure up in an
intern table and returns the live instance if there is one.  Two equal
elements are therefore the same object, so equality and hashing are the
``object`` defaults.  A pair is interned by its children in the two-level
table ``_PAIRS[fst][snd]``, so neither a hit nor a miss builds a key
object; every product in the registry has a constant left factor (the
writer monoid, the coreader labels), so the outer level stays small.
Every other constructor is interned in ``_KEY_CACHE``: a subset on its
member tuple in intern order (by ``id``), which needs no order key, an
``Inl`` on its value element, and the rest on their tag followed by their
label or children.  No two keys of different shapes are equal: the tagged
keys are tuples led by an int, a member tuple holds only elements, and an
element equals only itself.  ``Subset.members`` and the printers give the
members in the structural order.

The order key ``(tag, children's keys...)`` is computed on first use by
``element_key`` and kept in the memo ``_ORDER_KEYS``, because most
elements are intermediates that are never sorted or printed; an element
carries no slot for it.  Invariant: the intern tables and the memo are
never cleared, because identity equality and the intern order hold only
while they outlive every element.

Invariant: elements form no reference cycles.  Each constructor's
children exist before it, its slots are set once, on creation, and never
reassigned, and the memo holds only order keys, tuples of tags, labels
and keys.  So the cyclic garbage collector can free nothing here, and
``report.compare`` pauses it while a verdict builds and drops elements.

Carriers need no order keys: ``functors.apply_obj`` builds each one in the
structural order, so keys serve only the printers, ``fn_table`` and a
``FinSet`` of user input, which is sorted.  A carrier's membership set is
built on its first ``in``.  A powerset carrier's member tuples come out of
``apply_obj`` in intern order already, and ``Subset._raw`` interns them
without the set and the sort.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator

# member tuple, Inl value, or (tag, label or child objects...) -> the one
# live element with that structure; pairs live in _PAIRS instead
_KEY_CACHE: dict[object, "Element"] = {}

# fst -> snd -> the one live Pair(fst, snd)
_PAIRS: dict["Element", dict["Element", "Pair"]] = {}


class _OrderKeys(dict):
    """Element -> order key; a missing key is computed and kept."""

    def __missing__(self, e):
        key = self[e] = e._order_key()
        return key


_ORDER_KEYS = _OrderKeys()


class Element:
    """Base class for hash-consed elements."""

    __slots__ = ()


class Atom(Element):
    __slots__ = ("label",)

    def __new__(cls, label: str):
        ident = (0, label)
        e = _KEY_CACHE.get(ident)
        if e is None:
            e = _KEY_CACHE[ident] = object.__new__(cls)
            e.label = label
        return e

    def _order_key(self):
        return (0, self.label)

    def __repr__(self):
        return f"Atom({self.label!r})"


class Inl(Element):
    __slots__ = ("value",)

    def __new__(cls, value: Element):
        e = _KEY_CACHE.get(value)
        if e is None:
            e = _KEY_CACHE[value] = object.__new__(cls)
            e.value = value
        return e

    def _order_key(self):
        return (1, element_key(self.value))

    def __repr__(self):
        return f"Inl({self.value!r})"


class Inr(Element):
    __slots__ = ("value",)

    def __new__(cls, value: Element):
        ident = (2, value)
        e = _KEY_CACHE.get(ident)
        if e is None:
            e = _KEY_CACHE[ident] = object.__new__(cls)
            e.value = value
        return e

    def _order_key(self):
        return (2, element_key(self.value))

    def __repr__(self):
        return f"Inr({self.value!r})"


class Pair(Element):
    __slots__ = ("fst", "snd")

    def __new__(cls, fst: Element, snd: Element):
        row = _PAIRS.get(fst)
        if row is None:
            row = _PAIRS[fst] = {}
        e = row.get(snd)
        if e is None:
            e = row[snd] = object.__new__(cls)
            e.fst, e.snd = fst, snd
        return e

    def _order_key(self):
        return (3, element_key(self.fst), element_key(self.snd))

    def __repr__(self):
        return f"Pair({self.fst!r}, {self.snd!r})"


class Subset(Element):
    """A finite set of elements, from any iterable of them.

    Interned on the duplicate-free member tuple ``_members`` in intern
    order (by ``id``, stable because interned elements are never freed);
    ``members``, the printers and the order key, computed on first use,
    take them in the structural order.
    """

    __slots__ = ("_members",)

    def __new__(cls, members: Iterable[Element]):
        ms = tuple(sorted(set(members), key=id))
        e = _KEY_CACHE.get(ms)
        if e is None:
            e = _KEY_CACHE[ms] = object.__new__(cls)
            e._members = ms
        return e

    @classmethod
    def _raw(cls, members: tuple) -> "Subset":
        """Internal constructor for a member tuple already distinct and in
        intern order; skips the set and the sort.  Only ``apply_obj``
        calls it."""
        e = _KEY_CACHE.get(members)
        if e is None:
            e = _KEY_CACHE[members] = object.__new__(cls)
            e._members = members
        return e

    @property
    def members(self) -> tuple:
        """The members in the structural order."""
        return tuple(sorted(self._members, key=element_key))

    def _order_key(self):
        return (4, tuple(sorted(map(element_key, self._members))))

    def __repr__(self):
        return f"Subset({list(self.members)!r})"


class FnTable(Element):
    """Sorted entry tuple with duplicate-free keys; build through ``fn_table``."""

    __slots__ = ("entries",)

    def __new__(cls, entries: tuple):
        ident = (5, entries)
        e = _KEY_CACHE.get(ident)
        if e is None:
            e = _KEY_CACHE[ident] = object.__new__(cls)
            e.entries = entries
        return e

    def _order_key(self):
        return (5, tuple((element_key(a), element_key(b)) for a, b in self.entries))

    def __repr__(self):
        return f"FnTable({list(self.entries)!r})"


# Total-order key of an element: constructor tag, then the children's keys.
element_key = _ORDER_KEYS.__getitem__


def subset(members: Iterable[Element]) -> Subset:
    """Canonical subset: the public name for ``Subset(members)``, which the
    library's own builders call directly."""
    return Subset(members)


def fn_table(entries: Iterable[tuple[Element, Element]]) -> FnTable:
    """Canonical function table: entries sorted by key; keys must be distinct."""
    by_key = {}
    for k, v in entries:
        if k in by_key and by_key[k] != v:
            raise ValueError(f"conflicting entries for key {k!r}")
        by_key[k] = v
    return FnTable(tuple(sorted(by_key.items(), key=lambda kv: element_key(kv[0]))))


def element_repr(e: Element) -> str:
    """Compact printer used in witnesses and reports."""
    if type(e) is Atom:
        return e.label
    if type(e) is Inl:
        return f"inl({element_repr(e.value)})"
    if type(e) is Inr:
        return f"inr({element_repr(e.value)})"
    if type(e) is Pair:
        return f"({element_repr(e.fst)},{element_repr(e.snd)})"
    if type(e) is Subset:
        return "{" + ",".join(element_repr(m) for m in e.members) + "}"
    if type(e) is FnTable:
        return "[" + ",".join(f"{element_repr(k)}->{element_repr(v)}" for k, v in e.entries) + "]"
    raise TypeError(f"not an Element: {e!r}")


class FinSet:
    """Finite carrier with canonically ordered, duplicate-free elements.

    ``FinSet(iterable)``, for user input such as ``atoms``, deduplicates
    and sorts by the order key.  ``functors.apply_obj`` lists every carrier
    in the structural order already and hands it to ``_raw``, so no carrier
    needs a key.  The membership set is built on the first ``in``.
    """

    __slots__ = ("elements", "_members", "_hash")

    def __init__(self, elements: Iterable[Element] = ()):
        elements = tuple(sorted(dict.fromkeys(elements), key=element_key))
        self.elements, self._members, self._hash = elements, None, hash(elements)

    @classmethod
    def _raw(cls, elements: tuple) -> "FinSet":
        """Internal constructor for elements already distinct and in the
        structural order; skips the sort.  Only ``apply_obj`` calls it."""
        s = cls.__new__(cls)
        s.elements, s._members, s._hash = elements, None, hash(elements)
        return s

    def __contains__(self, e: Element) -> bool:
        members = self._members
        if members is None:
            members = self._members = frozenset(self.elements)
        return e in members

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FinSet) and self._hash == other._hash and self.elements == other.elements
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "FinSet({" + ",".join(element_repr(e) for e in self.elements) + "})"


def atoms(*labels: str) -> FinSet:
    return FinSet(Atom(l) for l in labels)


class CompositionError(ValueError):
    """Raised when boundaries of a composition do not match."""

    def __init__(self, cod: FinSet, dom: FinSet):
        super().__init__(f"cannot compose: codomain {cod!r} does not equal domain {dom!r}")
        self.cod, self.dom = cod, dom


class FinFn:
    """Total function between finite carriers, stored as a full table.

    The table ``_map`` is the only copy of the entries; ``pairs`` lists them
    in ``dom`` order.  Equality compares codomains and tables, and the hash,
    computed on first use, is taken over the values in ``dom`` order, so two
    equal tables built in different insertion orders hash alike.
    """

    __slots__ = ("dom", "cod", "_map", "_hash")

    def __init__(self, dom: FinSet, cod: FinSet, mapping):
        """``mapping``: dict, iterable of pairs, or callable on dom elements."""
        if callable(mapping):
            table = {x: mapping(x) for x in dom.elements}
        else:
            table = dict(mapping)
        if set(table) != set(dom.elements):
            missing = [e for e in dom.elements if e not in table]
            extra = [e for e in table if e not in dom]
            raise ValueError(f"table is not total on dom (missing={missing!r}, extra={extra!r})")
        for x, y in table.items():
            if y not in cod:
                raise ValueError(f"value {y!r} for {x!r} is not in the codomain")
        self.dom = dom
        self.cod = cod
        self._map = table
        self._hash = None

    @classmethod
    def _raw(cls, dom: FinSet, cod: FinSet, table: dict) -> "FinFn":
        """Internal constructor for tables already known to be total and
        well-typed; skips validation."""
        fn = cls.__new__(cls)
        fn.dom = dom
        fn.cod = cod
        fn._map = table
        fn._hash = None
        return fn

    @property
    def pairs(self) -> tuple[tuple[Element, Element], ...]:
        """The entries ``(x, f(x))`` in ``dom`` order."""
        m = self._map
        return tuple((x, m[x]) for x in self.dom.elements)

    def __call__(self, x: Element) -> Element:
        return self._map[x]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FinFn) and self.cod == other.cod and self._map == other._map
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            m = self._map
            h = self._hash = hash((self.dom, self.cod, tuple(m[x] for x in self.dom.elements)))
        return h

    def __repr__(self):
        body = ",".join(f"{element_repr(x)}->{element_repr(y)}" for x, y in self.pairs)
        return f"FinFn({body})"


def identity(X: FinSet) -> FinFn:
    return FinFn._raw(X, X, {x: x for x in X.elements})


def compose(g: FinFn, f: FinFn) -> FinFn:
    """g after f; boundaries must match syntactically."""
    if f.cod != g.dom:
        raise CompositionError(f.cod, g.dom)
    gm, fm = g._map, f._map
    return FinFn._raw(f.dom, g.cod, {x: gm[fm[x]] for x in f.dom.elements})


def iter_functions(X: FinSet, Y: FinSet) -> Iterator[FinFn]:
    """All total functions X -> Y in deterministic order; |Y|^|X| of them."""
    xs = X.elements
    for values in product(Y.elements, repeat=len(xs)):
        yield FinFn._raw(X, Y, dict(zip(xs, values)))


def all_functions(X: FinSet, Y: FinSet) -> list[FinFn]:
    return list(iter_functions(X, Y))


def function_count(X: FinSet, Y: FinSet) -> int:
    return len(Y) ** len(X)
