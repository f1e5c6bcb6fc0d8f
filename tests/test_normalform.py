import random

import pytest

from decagon.pasting import (
    CellRef,
    IdCell,
    VComp,
    boundary,
    builtin_signature,
    flatten,
    normalize,
    occurrences_to_term,
)
from decagon.pasting.builtin import (
    build_H,
    build_kleisli_extension_cells,
    build_omega_from_pentagons,
    build_pentagons_from_omega,
)
from decagon.pasting.normalform import Occurrence, apply_occurrence, swap_adjacent

SIG = builtin_signature()


def base_terms():
    w4, w3 = build_pentagons_from_omega(SIG)
    phi, theta, delta = build_kleisli_extension_cells(SIG)
    terms = [
        build_omega_from_pentagons(SIG),
        w4,
        w3,
        phi,
        theta,
        delta,
        build_H(SIG),
    ]
    terms.extend(SIG.axioms[name][0] for name in ("W5", "D1", "D2", "M2", "I1"))
    terms.extend(SIG.axioms[name][1] for name in ("W3", "W4", "M2", "I2"))
    return terms


def test_identity_erasure():
    om = SIG.cells["omega1"]
    t = VComp(IdCell(om.src), CellRef("omega1"))
    n = normalize(t, SIG)
    assert len(n.occurrences) == 1
    assert n.occurrences[0].cell == "omega1"


def test_generator_normalizes_to_single_occurrence():
    n = normalize(CellRef("Omega"), SIG)
    assert [o.cell for o in n.occurrences] == ["Omega"]


def test_constructed_swap_pair_normalizes_equal():
    # a pentagon on the front atoms and a triangle on the back atoms act on
    # disjoint ranges, so the two application orders are the same pasting
    from decagon.pasting import ArrowAtom, Path, Word
    from decagon.pasting.signature import PathScript

    sig = SIG.copy()

    def A(prefix, name, suffix):
        return ArrowAtom(Word.of(prefix), sig.arrows[name], Word.of(suffix))

    atoms = (A("", "m", "P T"), A("", "lambda", "T"), A("P T T", "eta", ""), A("P T", "lambda", ""))
    start = Path(atoms[0].src, atoms)
    s1 = PathScript(sig, start)
    s1.apply("omega3", 0)
    s1.apply("omega2", 3)
    t1 = s1.done()
    s2 = PathScript(sig, start)
    s2.apply("omega2", 2)
    s2.apply("omega3", 0)
    t2 = s2.done()
    assert boundary(t1, sig) == boundary(t2, sig)
    assert normalize(t1, sig) == normalize(t2, sig)


def _random_variant(rng, source, occs):
    """Apply random valid adjacent interchanges to an occurrence list."""
    seq = list(occs)
    for _ in range(rng.randrange(0, 3 * max(1, len(seq)))):
        if len(seq) < 2:
            break
        i = rng.randrange(len(seq) - 1)
        swapped = swap_adjacent(SIG, seq[i], seq[i + 1])
        if swapped is not None:
            seq[i], seq[i + 1] = swapped
    return seq


def _with_random_identities(rng, sig, source, occs):
    """Rebuild a term from occurrences, inserting identity cells."""
    term = occurrences_to_term(sig, source, occs)
    if term is None:
        term = IdCell(source)
    if rng.random() < 0.5:
        term = VComp(IdCell(source), term)
    if rng.random() < 0.5:
        _, tgt = boundary(term, sig)
        term = VComp(term, IdCell(tgt))
    return term


@pytest.mark.parametrize("seed", range(10))
def test_randomized_interchange_pairs(seed):
    rng = random.Random(seed)
    terms = base_terms()
    for _ in range(10):
        base = rng.choice(terms)
        source, occs = flatten(base, SIG)
        v1 = _random_variant(rng, source, occs)
        v2 = _random_variant(rng, source, occs)
        t1 = _with_random_identities(rng, SIG, source, v1)
        t2 = _with_random_identities(rng, SIG, source, v2)
        n1 = normalize(t1, SIG)
        n2 = normalize(t2, SIG)
        assert n1 == n2
        assert n1 == normalize(base, SIG)


def test_normalize_idempotent_on_all_bases():
    for base in base_terms():
        n = normalize(base, SIG)
        t = occurrences_to_term(SIG, n.source, list(n.occurrences))
        assert normalize(t, SIG) == n


def test_occurrence_replay_validates():
    om = SIG.cells["Omega"]
    from decagon.pasting.words import Word

    bad = Occurrence(3, Word(()), "omega1", False)
    with pytest.raises(Exception):
        apply_occurrence(SIG, om.src, bad)
