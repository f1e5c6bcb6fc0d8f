import pathlib
import random

import pytest

from decagon.monads import TestUniverse
from decagon.pasting import (
    BoundaryError,
    CellRef,
    IdCell,
    Inverse,
    Path,
    Signature,
    VComp,
    Whisker,
    Word,
    boundary,
    build_H,
    build_kleisli_extension_cells,
    build_omega_from_pentagons,
    build_pentagons_from_omega,
    builtin_signature,
    cells_used,
    check_axiom_degenerate,
    evaluate_cell,
    identity_interpretation,
    mixed_signature,
    parse_signature,
    signature_to_text,
)
from decagon.distlaw import exception_over_powerset
from decagon.pasting.evaluate import law_interpretation

SIG = builtin_signature()
U1 = TestUniverse.sizes(1)
U2 = TestUniverse.sizes(2)

AXIOMS = ["W1", "W2", "W3", "W4", "W5", "W6", "W7", "W8", "W9", "W10",
          "D1", "D2", "M1", "M2", "I1", "I2"]


def test_signature_declares_all_axioms():
    assert list(SIG.axioms) == AXIOMS


def test_axiom_pairs_are_parallel():
    for name, (lhs, rhs) in SIG.axioms.items():
        assert boundary(lhs, SIG) == boundary(rhs, SIG), name


def test_boundary_of_idcell():
    p = SIG.cells["Omega"].src
    assert boundary(IdCell(p), SIG) == (p, p)


def test_boundary_of_decagon_reference():
    src, tgt = boundary(CellRef("Omega"), SIG)
    assert src.start == Word.of("T P T P T") and src.end == Word.of("P T")
    assert len(src) == 5 and len(tgt) == 5


def test_boundary_junction_mismatch_reported():
    bad = VComp(CellRef("omega1"), CellRef("omega2"))
    with pytest.raises(BoundaryError):
        boundary(bad, SIG)


def test_inverse_restricted_to_cells():
    t = Inverse(CellRef("Omega"))
    src, tgt = boundary(t, SIG)
    assert (tgt, src) == boundary(CellRef("Omega"), SIG)


def test_whisker_boundary():
    t = Whisker(Word.of("T"), CellRef("omega3"), Word.of(""))
    src, tgt = boundary(t, SIG)
    assert src.start == Word.of("T T T P")
    assert tgt.end == Word.of("T P T")


def test_omega_builder_matches_declared_boundary():
    t = build_omega_from_pentagons(SIG)
    assert boundary(t, SIG) == (SIG.cells["Omega"].src, SIG.cells["Omega"].tgt)


def test_pentagon_builders_match_declared_boundaries():
    w4, w3 = build_pentagons_from_omega(SIG)
    assert boundary(w4, SIG) == (SIG.cells["omega4"].src, SIG.cells["omega4"].tgt)
    assert boundary(w3, SIG) == (SIG.cells["omega3"].src, SIG.cells["omega3"].tgt)


def test_extension_cell_builders_match_declared_boundaries():
    phi, theta, delta = build_kleisli_extension_cells(SIG)
    assert boundary(phi, SIG) == (SIG.cells["phi"].src, SIG.cells["phi"].tgt)
    assert boundary(theta, SIG) == (SIG.cells["theta"].src, SIG.cells["theta"].tgt)
    assert boundary(delta, SIG) == (SIG.cells["delta"].src, SIG.cells["delta"].tgt)


def test_h_builder_matches_declared_boundary():
    t = build_H(SIG)
    assert boundary(t, SIG) == (SIG.cells["H"].src, SIG.cells["H"].tgt)


def test_theta_boundary_shape():
    # source: the extension of the Kleisli unit; target: the Kleisli identity
    theta = SIG.cells["theta"]
    assert theta.src.start == Word.of("T X") and theta.src.end == Word.of("P T X")
    assert len(theta.tgt) == 1 and theta.tgt.atoms[0].gen.name == "eta"


SHIPPED = [builtin_signature, mixed_signature]


@pytest.mark.parametrize("build", SHIPPED, ids=lambda f: f.__name__)
def test_textual_round_trip(build):
    sig = build()
    sig2 = parse_signature(signature_to_text(sig))
    assert sig2.alphabet == sig.alphabet
    assert sig2.arrows == sig.arrows
    assert {n: (c.src, c.tgt) for n, c in sig2.cells.items()} == {
        n: (c.src, c.tgt) for n, c in sig.cells.items()
    }
    assert sig2.axioms == sig.axioms


# Tokens a mutation inserts: the format's punctuation and some of its words.
_INSERTED = ["(", ")", "[", "]", ";", ".", "@", "epsilon", "vcomp", "cell", "inv", "T"]


@pytest.mark.parametrize("load,count", [(builtin_signature, 120), (mixed_signature, 1200)],
                         ids=["builtin_signature", "mixed_signature"])
def test_mutated_assets_parse_or_raise_value_error(load, count):
    # a truncation, a deleted span or an inserted token either leaves a
    # valid signature or is rejected with ValueError, which the CLI turns
    # into exit 2; any other exception would be an internal error
    import importlib.resources as res

    text = (res.files("decagon.pasting") / "assets" / f"{load.__name__}.sexp").read_text()
    rng = random.Random(20210225)
    for _ in range(count):
        i = rng.randrange(len(text) + 1)
        kind = rng.randrange(3)
        if kind == 0:
            mutated = text[:i]
        elif kind == 1:
            mutated = text[:i] + text[i + rng.randrange(1, 40):]
        else:
            mutated = text[:i] + rng.choice(_INSERTED) + text[i:]
        try:
            assert isinstance(parse_signature(mutated), Signature)
        except ValueError:
            pass


# The cells each axiom pastes; check_axiom_degenerate evaluates exactly these.
AXIOM_CELLS = {
    "W1": ["omega1", "omega3", "unit-r-T", "xc-lambda-e-u"],
    "W2": ["omega2", "omega4", "unit-l-P", "xc-eta-e-lambda"],
    "W3": ["assoc-T", "omega3", "xc-lambda-e-m", "xc-m-e-lambda"],
    "W4": ["assoc-P", "omega4", "xc-lambda-e-mu", "xc-mu-e-lambda"],
    "W5": ["omega3", "omega4", "xc-lambda-e-lambda", "xc-m-e-mu", "xc-mu-e-m"],
    "W6": ["omega1", "omega3", "unit-l-T", "xc-u-e-lambda"],
    "W7": ["omega2", "omega4", "unit-r-P", "xc-lambda-e-eta"],
    "W8": ["omega2", "omega3", "xc-eta-e-m", "xc-m-e-eta"],
    "W9": ["omega1", "omega4", "xc-mu-e-u", "xc-u-e-mu"],
    "W10": ["omega1", "omega2", "xc-eta-e-u", "xc-u-e-eta"],
    "D1": ["Omega", "omega1", "omega2", "unit-l-P", "unit-l-T", "unit-r-T", "xc-eta-P-m",
           "xc-eta-e-lambda", "xc-eta-e-m", "xc-eta-e-u"],
    "D2": ["Omega", "assoc-P", "xc-lambda-T-mu", "xc-lambda-TP-lambda", "xc-lambda-TPP-m",
           "xc-m-P-lambda", "xc-m-PP-m", "xc-m-e-mu", "xc-mu-P-m", "xc-mu-e-lambda"],
    "M1": ["Psi", "psi1", "psi2", "unit-l-P", "unit-r-T", "xc-eta-e-alpha", "xc-eta-e-u"],
    "M2": ["Psi", "assoc-P", "xc-alpha-P-alpha", "xc-alpha-e-mu", "xc-mu-e-alpha"],
    "I1": ["Psi", "psi1", "psi2", "unit-l-P", "unit-r-T", "xc-alpha-e-g", "xc-eta-T-g",
           "xc-eta-e-alpha", "xc-u-e-g"],
    "I2": ["Psi", "assoc-P", "xc-alpha-P-alpha", "xc-alpha-PT-h", "xc-alpha-e-g",
           "xc-alpha-e-h", "xc-alpha-e-mu", "xc-mu-T-h", "xc-mu-e-alpha"],
}


def test_axioms_paste_the_recorded_cells():
    assert {name: sorted(cells_used(lhs) | cells_used(rhs))
            for name, (lhs, rhs) in SIG.axioms.items()} == AXIOM_CELLS


@pytest.mark.parametrize("load", SHIPPED, ids=lambda f: f.__name__)
def test_rebuilt_signature_prints_the_shipped_asset(load):
    # the workflow for adding an axiom starts from a copy of the shipped
    # signature and prints it; with nothing added it gives the asset back
    # verbatim, and the shipped signature is left as it was
    import importlib.resources as res

    asset = res.files("decagon.pasting") / "assets" / f"{load.__name__}.sexp"
    sig = load().copy()
    sig.validate()
    assert signature_to_text(sig) == asset.read_text()
    sig.cells.clear()
    assert load().cells


@pytest.mark.parametrize("load", SHIPPED, ids=lambda f: f.__name__)
def test_every_shipped_path_prints_as_the_reader_reads_it(load):
    from decagon.pasting.signature import _TOKEN, _path

    sig = load()
    for cell in sig.cells.values():
        for path in (cell.src, cell.tgt):
            assert _path(_TOKEN.findall(str(path)), sig.arrows) == path, cell.name


def test_words_print_as_signature_files_write_them():
    assert str(Word(())) == "epsilon"
    assert str(Word(("L1", "R"))) == "L1 R"
    assert str(Path(Word(()))) == "@ epsilon"


@pytest.mark.parametrize("symbols", [(), ("T",), ("L1", "R"), ("T", "P", "P")])
def test_a_printed_word_reads_back_as_itself(symbols):
    assert Word.of(str(Word(symbols))) == Word(symbols)


@pytest.mark.parametrize("text", ["T.P", "(T)", "T ;"])
def test_a_word_has_no_punctuation(text):
    with pytest.raises(ValueError, match="not a word symbol"):
        Word.of(text)


@pytest.mark.parametrize("text", ["T epsilon P", "epsilon T", "epsilon epsilon"])
def test_only_a_lone_epsilon_is_the_empty_word(text):
    assert Word.of("epsilon") == Word.of("") == Word(())
    with pytest.raises(ValueError, match="epsilon"):
        Word.of(text)


def test_package_data_ships_the_signature_assets():
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).resolve().parents[1]
    config = tomllib.loads((root / "pyproject.toml").read_text())
    globs = config["tool"]["setuptools"]["package-data"]["decagon"]
    package = root / "src" / "decagon"
    shipped = {p.relative_to(package).as_posix() for g in globs for p in package.glob(g)}
    assert {f"pasting/assets/{load.__name__}.sexp" for load in SHIPPED} <= shipped


# Every concrete checker evaluates cells of a shipped signature; its axiom
# names map to these cells.
CHECKER_CELLS = {
    "check_beck": {"unit-u-triangle": "omega1", "unit-eta-triangle": "omega2",
                   "m-pentagon": "omega3", "mu-pentagon": "omega4"},
    "check_decagon": {"unit-u-triangle": "omega1", "unit-eta-triangle": "omega2",
                      "decagon": "Omega"},
    "check_algebra": {"unit-triangle": "psi1", "eta-square": "psi2", "hexagon": "Psi"},
    "check_five_axiom": {"algebra-unit": "psi1", "algebra-mult": "algebra-mult",
                         "m-square": "H", "eta-square": "psi2", "mu-diagram": "mu-diagram"},
    "check_monad_monoidal": {"unit-left": "unit-l-T", "unit-right": "unit-r-T",
                             "associativity": "assoc-T"},
    "compose": {"unit-left": "unit-l-T", "unit-right": "unit-r-T", "associativity": "assoc-T"},
    "check_comonad": {"counit-left": "counit-l-L", "counit-right": "counit-r-L",
                      "coassociativity": "coassoc-L"},
    "check_mixed_decagon": {"epsilon-triangle": "epsilon-triangle",
                            "eta-triangle": "eta-triangle", "mixed-decagon": "mixed-decagon"},
    "check_mixed_classic": {"epsilon-triangle": "epsilon-triangle",
                            "eta-triangle": "eta-triangle", "delta-pentagon": "delta-pentagon",
                            "mu-pentagon": "mu-pentagon"},
}


def _checker_run(checker: str):
    """(report at size 0, the checker's cell table, the signature it reads)."""
    from decagon import distlaw, monads

    U0 = TestUniverse.sizes(0)
    law = exception_over_powerset()
    alg = distlaw.monoidal_to_algebra(law)
    mixed = distlaw.coreader_over_powerset()
    coreader = monads.builtin_monads()["coreader"]
    powerset = monads.builtin_monads()["powerset"]
    runs = {
        "check_beck": lambda: (distlaw.check_beck(law, U0), distlaw.BECK_CELLS, SIG),
        "check_decagon": lambda: (distlaw.check_decagon(law, U0), distlaw.DECAGON_CELLS, SIG),
        "check_algebra": lambda: (distlaw.check_algebra(alg, U0), distlaw.ALGEBRA_CELLS, SIG),
        "check_five_axiom": lambda: (distlaw.check_five_axiom(alg.alpha, law.T, law.P, U0),
                                     distlaw.FIVE_AXIOM_CELLS, SIG),
        "check_monad_monoidal": lambda: (monads.check_monad_monoidal(powerset, U0),
                                         monads.MONAD_CELLS, SIG),
        "compose": lambda: (monads.check_monad_monoidal(distlaw.compose_monads(alg), U0),
                            monads.MONAD_CELLS, SIG),
        "check_comonad": lambda: (monads.check_comonad(coreader, U0), monads.COMONAD_CELLS,
                                  mixed_signature()),
        "check_mixed_decagon": lambda: (distlaw.check_mixed_decagon(mixed, U0),
                                        distlaw.MIXED_DECAGON_CELLS, mixed_signature()),
        "check_mixed_classic": lambda: (distlaw.check_mixed_classic(mixed, U0),
                                        distlaw.MIXED_CLASSIC_CELLS, mixed_signature()),
    }
    return runs[checker]()


@pytest.mark.parametrize("checker", list(CHECKER_CELLS))
def test_checker_axioms_are_signature_cells(checker):
    report, table, sig = _checker_run(checker)
    expected = CHECKER_CELLS[checker]
    assert table == expected
    assert [v.axiom for v in report.verdicts] == list(expected)
    assert set(expected.values()) <= set(sig.cells)
    assert report.ok, report.summary()


def test_mixed_signature_cells_are_used_by_no_axiom():
    assert mixed_signature().axioms == {}
    assert not {"algebra-mult", "mu-diagram"} & {
        n for lhs, rhs in SIG.axioms.values() for n in cells_used(lhs) | cells_used(rhs)
    }


# --- degenerate evaluation ---------------------------------------------------


@pytest.mark.parametrize("axiom", AXIOMS)
def test_identity_interpretation_degenerate(axiom):
    rep = check_axiom_degenerate(axiom, identity_interpretation(), U1)
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("axiom", ["W1", "W5", "W10", "D1", "M1", "I1"])
def test_exception_powerset_degenerate_fast_axioms(axiom):
    rep = check_axiom_degenerate(axiom, law_interpretation(exception_over_powerset()), U2)
    assert rep.ok, rep.summary()


def test_degenerate_check_catches_broken_interpretation():
    from decagon.distlaw import DistLaw
    from decagon.elements import Inl, Subset, subset
    from decagon.transforms import formula

    good = exception_over_powerset()

    def lam_fn(e):
        if type(e) is Inl:
            return subset(Inl(x) for x in e.value.members)
        return Subset(())  # drops the error: omega2's equation fails

    bad_law = DistLaw("broken", good.T, good.P,
                      formula(good.lam.src, good.lam.tgt, lam_fn, "bad"))
    rep = check_axiom_degenerate("W2", law_interpretation(bad_law), U1)
    assert not rep.ok
    failing = {v.axiom for v in rep.verdicts if not v.passed}
    assert "cell:omega2" in failing


def test_builder_terms_evaluate_degenerately():
    # under a strict interpretation the boundary composites of each built
    # term must be equal tables, and delta's sides must match the
    # extension's composition tables computed by the concrete converter
    from decagon.elements import FinSet, atoms, iter_functions
    from decagon.transforms import composite_map

    interp = law_interpretation(exception_over_powerset())
    phi, theta, delta = build_kleisli_extension_cells(SIG)
    cell = SIG.cells["delta"]
    X0, Y0, Z0 = atoms("a"), atoms("b"), atoms("c")
    from decagon.functors import apply_obj, compose_functors

    PT = compose_functors(interp.functors["P"], interp.functors["T"])
    f0 = next(iter_functions(X0, apply_obj(PT, Y0)))
    g0 = next(iter_functions(Y0, apply_obj(PT, Z0)))
    objects = {"X": X0, "Y": Y0, "Z": Z0}
    generics = {"f": f0, "g": g0}
    amb = FinSet()
    lhs = composite_map(interp.path_steps(cell.src, objects, generics), amb, 10 ** 6)
    rhs = composite_map(interp.path_steps(cell.tgt, objects, generics), amb, 10 ** 6)
    assert lhs == rhs

    # cross-check against the Kleisli extension built in the concrete layer
    from decagon.distlaw import extend_to_kleisli, monoidal_to_algebra
    from decagon.elements import compose

    ext = extend_to_kleisli(monoidal_to_algebra(exception_over_powerset()))
    kl = ext.ambient
    lhs_table = ext.ext(kl.compose(ext.ext(g0), f0))
    for x, v in lhs.items():
        assert lhs_table(x) == v


def test_evaluate_cell_quantifies_generics():
    interp = law_interpretation(exception_over_powerset())
    v = evaluate_cell(SIG.cells["xc-u-e-f"], interp, U1)
    assert v.passed and v.checked > 1


@pytest.mark.parametrize("axiom", AXIOMS)
def test_writer_interpretation_degenerate(axiom):
    from decagon.distlaw import writer_over_powerset

    interp = law_interpretation(writer_over_powerset())
    rep = check_axiom_degenerate(axiom, interp, U1)
    assert rep.ok, rep.summary()


def test_depth_bound_guards_deep_words():
    shallow = TestUniverse.sizes(1)
    shallow.depth_bound = 4
    with pytest.raises(ValueError):
        check_axiom_degenerate("D2", identity_interpretation(), shallow)
    # the decagon needs words of length 7 (its interchangers span TP.TPP.TT)
    shallow.depth_bound = 7
    assert check_axiom_degenerate("D2", identity_interpretation(), shallow).ok


_LAMBDA_CELLS = [c for c in SIG.cells.values()
                 if any(a.gen.name == "lambda" for a in c.src.atoms + c.tgt.atoms)]


def test_the_algebra_form_interprets_lambda_as_the_lambda_form_does():
    # lambda = alpha . TPu: every cell that uses lambda gets the verdict of
    # the lambda form's interpretation, where lambda was once left generic
    from decagon.distlaw import monoidal_to_algebra

    law = exception_over_powerset()
    by_lambda, by_alpha = law_interpretation(law), law_interpretation(monoidal_to_algebra(law))
    assert len(_LAMBDA_CELLS) == 24
    for cell in _LAMBDA_CELLS:
        want = evaluate_cell(cell, by_lambda, U1)
        assert want.passed, cell.name
        assert evaluate_cell(cell, by_alpha, U1) == want, cell.name


def test_delta_under_a_tabulated_alpha_returns_a_verdict():
    # alpha is tabulated on sizes <= 1, so the instances that need it
    # elsewhere are skipped; the recovered lambda is tabulated there too
    from decagon.distlaw import algebra_to_noiter, monoidal_to_algebra, noiter_to_algebra

    law = exception_over_powerset()
    alg = noiter_to_algebra(algebra_to_noiter(monoidal_to_algebra(law)), U1, law.P)
    v = evaluate_cell(SIG.cells["delta"], law_interpretation(alg), U2)
    assert (v.passed, v.checked, v.skipped) == (True, 7, 6440)


def test_a_generic_arrow_with_no_object_symbol_is_refused():
    from decagon.pasting.evaluate import UnboundGenericArrow

    sig = parse_signature(
        "(signature (version 1) (alphabet T P) (arrow nu (T T) (T))\n"
        "  (cell c (src [epsilon . nu . epsilon]) (tgt [epsilon . nu . epsilon])))\n")
    with pytest.raises(UnboundGenericArrow, match="nu"):
        evaluate_cell(sig.cells["c"], law_interpretation(exception_over_powerset()), U1)


# --- the verdict memo and the hoisted evaluation -------------------------------


def _broken_law(name, lam_fn):
    from decagon.distlaw import DistLaw
    from decagon.transforms import formula

    good = exception_over_powerset()
    return DistLaw(name, good.T, good.P, formula(good.lam.src, good.lam.tgt, lam_fn, name))


def _empty_set_lambda(e):
    from decagon.elements import Inl, Subset, subset

    if type(e) is Inl:
        return subset(Inl(x) for x in e.value.members)
    return Subset(())


def _inl_nonempty_lambda(e):
    """Adds inr(e) when a member is inl of a nonempty subset.  Not natural:
    in xc-lambda-T-g only the target side meets such members, after the
    generic g, and only for a g other than the first function."""
    from decagon.elements import Atom, Inl, Inr, Subset, subset

    if type(e) is Inl:
        img = [Inl(x) for x in e.value.members]
        if any(type(x) is Inl and type(x.value) is Subset and x.value.members
               for x in e.value.members):
            img.append(Inr(Atom("e")))
        return subset(img)
    return Subset((e,))


def _row(v):
    return v.passed, v.checked, v.skipped, v.witness


@pytest.mark.parametrize("mutant_first", [False, True])
def test_verdict_memo_keeps_interpretations_apart(mutant_first):
    shared = TestUniverse.sizes(2)
    runs = [("good", law_interpretation(exception_over_powerset())),
            ("mutant", law_interpretation(_broken_law("empty-set", _empty_set_lambda)))]
    for name, interp in reversed(runs) if mutant_first else runs:
        rep = check_axiom_degenerate("M1", interp, shared)
        if name == "good":
            assert rep.ok, rep.summary()
        else:
            w = rep.verdict("cell:psi2").witness
            assert f"{w.element}: {w.lhs} != {w.rhs}" == "inr(e): {} != {inr(e)}"


def test_memoised_verdict_is_a_fresh_copy_of_a_fresh_evaluation():
    interp = law_interpretation(exception_over_powerset())
    cell = SIG.cells["xc-u-e-f"]
    U = TestUniverse.sizes(1)
    first = evaluate_cell(cell, interp, U)
    first.passed, first.checked = False, -1
    hit = evaluate_cell(cell, interp, U)
    assert hit == evaluate_cell(cell, interp, TestUniverse.sizes(1))
    assert hit.passed and hit.checked > 1
    # the carrier cap is part of the key: a lower cap skips instead
    U.carrier_cap = 0
    assert evaluate_cell(cell, interp, U).skipped > 0


def test_a_generic_arrow_whose_boundary_is_over_the_cap_is_skipped():
    # f: X -> PTY; PT(Y) has 4 elements at |Y| = 1, over a cap of 3, so
    # those two object assignments are skipped, each as one instance
    U = TestUniverse.sizes(1)
    U.carrier_cap = 3
    v = evaluate_cell(SIG.cells["xc-u-e-f"], law_interpretation(exception_over_powerset()), U)
    assert (v.passed, v.checked, v.skipped) == (True, 3, 2)


def test_verdict_memo_lives_as_long_as_the_interpretation():
    # the memo is on the interpretation: the universe keeps no reference to it
    import gc
    import weakref

    U = TestUniverse.sizes(1)
    interp = law_interpretation(exception_over_powerset())
    evaluate_cell(SIG.cells["xc-u-e-f"], interp, U)
    assert len(interp._verdicts) == 1
    gone = weakref.ref(interp)
    del interp
    gc.collect()
    assert gone() is None


def test_depth_bound_guards_memo_hits():
    U = TestUniverse.sizes(1)
    assert check_axiom_degenerate("D2", identity_interpretation(), U).ok
    U.depth_bound = 4
    with pytest.raises(ValueError):
        check_axiom_degenerate("D2", identity_interpretation(), U)


def _per_instance_verdict(cell, interp, universe):
    """evaluate_cell's verdict with both paths rebuilt and run from the
    source carrier for every instance: the reference for the hoisting."""
    from decagon.functors import apply_obj
    from decagon.report import compare, quantify
    from decagon.transforms import ComponentUnavailable, OversizeCarrier, composite_map

    atoms = cell.src.atoms + cell.tgt.atoms
    words = [cell.src.start] + [a.src for a in atoms] + [a.tgt for a in atoms]
    obj_names = sorted({s for w in words for s in w.symbols} - interp.functors.keys())
    generics = sorted({a.gen for a in atoms if a.gen.name not in interp.arrows},
                      key=lambda g: g.name)
    cap = universe.carrier_cap

    def side(path, objects, chosen, X):
        steps = interp.path_steps(path, objects, chosen)
        if steps:
            return composite_map(steps, X, cap)
        F = interp.word_functor(path.start, objects)
        return {e: e for e in apply_obj(F, X, cap).elements}

    def instances():
        for X in universe.objects[:1] if obj_names else universe.objects:
            def ends(*combo):
                objects = dict(zip(obj_names, combo))
                return [tuple(apply_obj(interp.word_functor(w, objects), X)
                              for w in (g.src, g.tgt)) for g in generics]

            for combo, morphisms in quantify(universe, obj_names, ends):
                objects = dict(zip(obj_names, combo))
                at = f"|X|={len(X)}" + "".join(f",{k}={len(v)}" for k, v in objects.items())
                if morphisms is None:
                    yield at, None
                    continue
                for fs in morphisms:
                    chosen = {g.name: fn for g, fn in zip(generics, fs)}
                    try:
                        sides = tuple(side(p, objects, chosen, X) for p in (cell.src, cell.tgt))
                    except (OversizeCarrier, ComponentUnavailable):
                        sides = None
                    yield at, sides

    return compare(f"cell:{cell.name}", instances())


GENERIC_CELLS = sorted(n for n, c in SIG.cells.items()
                       if {a.gen.name for a in c.src.atoms + c.tgt.atoms} & {"f", "g", "h"})


def _tabulated_alpha_interpretation():
    """The exception law with its alpha recovered from the no-iteration
    form, tabulated on sizes <= 2: an alpha step at PT(Z) refuses once
    |Z| >= 1, where PT(Z) has 4 elements or more."""
    from decagon.distlaw import algebra_to_noiter, monoidal_to_algebra, noiter_to_algebra
    from decagon.pasting import Interpretation

    law = exception_over_powerset()
    good = law_interpretation(law)
    alpha = noiter_to_algebra(algebra_to_noiter(monoidal_to_algebra(law)), U2, law.P).alpha
    return Interpretation("tabulated-alpha", good.functors, {**good.arrows, "alpha": alpha})


def _interpretations():
    from decagon.distlaw import writer_over_powerset

    return [law_interpretation(exception_over_powerset()),
            law_interpretation(writer_over_powerset()),
            law_interpretation(_broken_law("empty-set", _empty_set_lambda)),
            identity_interpretation(),
            law_interpretation(_broken_law("inl-nonempty", _inl_nonempty_lambda)),
            _tabulated_alpha_interpretation()]


@pytest.mark.parametrize("interp", _interpretations(), ids=lambda i: i.name)
def test_hoisting_changes_no_verdict(interp):
    # every cell with a generic arrow at sizes <= 2 against the reference
    # that compiles every step per instance.  Under writer the reference's
    # carriers reach 2^16, so the cap is 20,000, and delta, 74,979 instances
    # at size 2 (about 26 s on a 2-core host), stays at size 1.
    writer = interp.name == "writer-over-powerset"
    rows = {}
    for name in GENERIC_CELLS:
        cell = SIG.cells[name]
        universe = TestUniverse.sizes(1 if writer and name == "delta" else 2)
        if writer:
            universe.carrier_cap = 20_000
        rows[name] = _row(evaluate_cell(cell, interp, universe))
        assert rows[name] == _row(_per_instance_verdict(cell, interp, universe)), name
    if interp.name == "tabulated-alpha":
        # the alpha step after the generic arrow refuses at |Z| >= 1 only
        assert rows["xc-alpha-e-g"][:3] == (True, 7, 94)


def test_hoisting_changes_no_verdict_of_the_generic_pasting_algebra_cells():
    interp = law_interpretation(exception_over_powerset())
    for name in ["xc-alpha-PT-h", "xc-alpha-e-g", "xc-alpha-e-h", "xc-eta-T-g",
                 "xc-mu-T-h", "xc-u-e-g"]:
        cell = SIG.cells[name]
        got = evaluate_cell(cell, interp, TestUniverse.sizes(2))
        assert _row(got) == _row(_per_instance_verdict(cell, interp, U2)), name
        assert got.passed and got.checked > 1


def test_hoisted_cell_catches_a_failure_after_its_generic_step():
    interp = law_interpretation(_broken_law("inl-nonempty", _inl_nonempty_lambda))
    v = evaluate_cell(SIG.cells["xc-lambda-T-g"], interp, U1)
    assert not v.passed
    w = v.witness
    assert (w.at, w.element, w.lhs, w.rhs) == (
        "|X|=0,Y=1,Z=0", "inl({inl(a)})", "{inl(inl({inr(e)}))}", "{inl(inl({inr(e)})),inr(e)}")


def _counting_sides(monkeypatch):
    """Wrap ``_Side.__init__`` and ``compiled_step`` of ``pasting.evaluate``:
    the weak references to the sides built, and the family name of each
    step compiled."""
    import weakref

    import decagon.pasting.evaluate as evaluate

    sides, names = [], []
    init, compiled_step = evaluate._Side.__init__, evaluate.compiled_step

    def counting_init(self, *args):
        sides.append(weakref.ref(self))
        init(self, *args)

    def counting_step(step, *args):
        names.append(step.nt.name)
        return compiled_step(step, *args)

    monkeypatch.setattr(evaluate._Side, "__init__", counting_init)
    monkeypatch.setattr(evaluate, "compiled_step", counting_step)
    return sides, names


def test_a_generic_free_step_compiles_once_per_object_assignment(monkeypatch):
    # xc-alpha-e-g: [epsilon . alpha . Y] ; [P T . g . epsilon] against
    # [T P T . g . epsilon] ; [epsilon . alpha . P T Z]; each alpha, the one
    # after g too, compiles once per object assignment, each g once per
    # instance
    sides, names = _counting_sides(monkeypatch)
    cell = SIG.cells["xc-alpha-e-g"]
    atoms = cell.src.atoms + cell.tgt.atoms
    assert [a.gen.name for a in atoms] == ["alpha", "g", "g", "alpha"]
    v = evaluate_cell(cell, law_interpretation(exception_over_powerset()), TestUniverse.sizes(2))
    assignments = len(sides) // 2  # one side per path; the cell passes, so no whole rerun
    assert (v.passed, v.checked, v.skipped, assignments) == (True, 101, 0, 9)
    assert names.count("g") == 2 * v.checked
    assert len(names) - names.count("g") == 2 * assignments


@pytest.mark.parametrize("make,built", [
    (exception_over_powerset, 18),
    (lambda: _per_member_law("one-member-to-error", _one_member_subsets_to_error), 20)],
    ids=["passing", "mutant"])
def test_no_side_outlives_evaluate_cell(make, built, monkeypatch):
    # the compiled steps and their memos live on the sides, which go when
    # the verdict is made, with no collector pass: two sides for each of
    # the 9 object assignments, and for the mutant two more on the whole
    # source of its first failing instance
    import gc

    sides, _ = _counting_sides(monkeypatch)
    gc.disable()
    try:
        evaluate_cell(SIG.cells["xc-alpha-e-g"], law_interpretation(make()), TestUniverse.sizes(2))
        assert len(sides) == built
        assert all(side() is None for side in sides)
    finally:
        gc.enable()


# --- union-preserving cells on their join generators ---------------------------

# the cells whose two paths preserve unions in the subset at the head of
# their source, and in the subset behind a leading T, under each registered
# lambda law
HEAD_P_CELLS = {"unit-r-P", "assoc-P", "xc-mu-e-lambda", "xc-mu-e-m", "xc-mu-e-u", "xc-mu-P-m",
                "xc-mu-e-alpha", "xc-mu-T-h"}
T_P_CELLS = {"H", "Omega", "Psi", "mu-diagram", "omega4", "xc-alpha-P-alpha", "xc-alpha-PT-h",
             "xc-alpha-e-eta", "xc-alpha-e-g", "xc-alpha-e-h", "xc-alpha-e-mu", "xc-lambda-P-m",
             "xc-lambda-P-u", "xc-lambda-T-g", "xc-lambda-T-mu", "xc-lambda-TP-lambda",
             "xc-lambda-TPP-m", "xc-lambda-e-eta", "xc-lambda-e-lambda", "xc-lambda-e-m",
             "xc-lambda-e-mu", "xc-lambda-e-u"}


def _marks(cells, interp):
    from decagon.pasting.evaluate import generator_mark

    return {name: mark for name, cell in cells.items()
            if (mark := generator_mark(cell, interp)) is not None}


def _per_member_law(name, share):
    from decagon.distlaw import DistLaw
    from decagon.transforms import per_member

    good = exception_over_powerset()
    return DistLaw(name, good.T, good.P, per_member(good.lam.src, good.lam.tgt, share, name))


def _adds_error(e):
    """Per member: inl {a} goes to {inl a, inr e}."""
    from decagon.elements import Atom, Inl, Inr, Subset

    if type(e) is Inl:
        return Subset((Inl(e.value.members[0]), Inr(Atom("e"))))
    return Subset((e,))


def _one_member_subsets_to_error(e):
    """Per member: inl {a} goes to {inr e} when a, or the value a injects,
    is a one-member subset, and to {inl a} otherwise."""
    from decagon.elements import Atom, Inl, Inr, Subset

    if type(e) is not Inl:
        return Subset((e,))
    a = e.value.members[0]
    inner = a.value if type(a) is Inl else a
    if type(inner) is Subset and len(inner.members) == 1:
        return Subset((Inr(Atom("e")),))
    return Subset((Inl(a),))


# the cells check_monad_monoidal evaluates under a monad's interpretation
MONAD_CELLS = {n: SIG.cells[n] for n in ("unit-l-T", "unit-r-T", "assoc-T")}


def _monad_interpretation(M):
    from decagon.pasting import Interpretation

    return Interpretation(M.name, {"T": M.functor}, {"u": M.unit, "m": M.mult})


def test_the_pass_accepts_the_union_preserving_cells_of_each_registered_law():
    from decagon.distlaw import (_mixed_interpretation, builtin_laws, compose_monads,
                                 monoidal_to_algebra)
    from decagon.monads import builtin_monads

    laws = builtin_laws()
    want = {**dict.fromkeys(HEAD_P_CELLS, 0), **dict.fromkeys(T_P_CELLS, 1)}
    for name in ("exception-over-powerset", "writer-over-powerset"):
        assert _marks(SIG.cells, law_interpretation(laws[name])) == want, name
        # the composite monad's head P is read off its functor, not its letter
        composite = compose_monads(monoidal_to_algebra(laws[name]))
        assert _marks(MONAD_CELLS, _monad_interpretation(composite)) == {"unit-r-T": 0,
                                                                       "assoc-T": 0}
    assert _marks(MONAD_CELLS, _monad_interpretation(builtin_monads()["powerset"])) == {
        "unit-r-T": 0, "assoc-T": 0}
    assert _marks(mixed_signature().cells,
                  _mixed_interpretation(laws["coreader-over-powerset"])) == {"mu-pentagon": 1}
    assert _marks(SIG.cells, identity_interpretation()) == {}


def _survivor_law():
    from decagon.distlaw import DistLaw
    from decagon.monads import builtin_monads
    from decagon.search import SearchSpec, enumerate_candidates

    T, P = builtin_monads()["exception"], builtin_monads()["powerset"]
    return DistLaw("survivor", T, P, enumerate_candidates(SearchSpec(T, P, universe=U1)).survivors[0])


@pytest.mark.parametrize("make", [lambda: _broken_law("empty-set", _empty_set_lambda),
                                  _survivor_law], ids=["formula", "tabulated"])
def test_formula_and_tabulated_lambdas_carry_no_mark(make):
    # such a lambda, and the alpha derived from it, may still act under the
    # head P, as a direct image, but no cell that needs it to carry a mark
    # is reduced
    assert _marks(SIG.cells, law_interpretation(make())) == dict.fromkeys(HEAD_P_CELLS, 0)


def test_join_generators_are_the_empty_set_and_the_singletons():
    from decagon.elements import atoms
    from decagon.functors import apply_obj, size_within
    from decagon.pasting.evaluate import join_generators
    from decagon.transforms import OversizeCarrier

    interp = law_interpretation(exception_over_powerset())
    marks = _marks(SIG.cells, interp)
    X = atoms("a", "b")
    for name, count in (("xc-alpha-e-mu", 19), ("assoc-P", 17)):
        F = interp.word_functor(SIG.cells[name].src.start, {})
        gens = join_generators(F, marks[name], X, 200_000)
        assert len(gens) == count and set(gens) <= set(apply_obj(F, X))
        # the cap is decided on the whole carrier, which is never built
        full = size_within(F, 2, 200_000)
        with pytest.raises(OversizeCarrier):
            join_generators(F, marks[name], X, full - 1)


def _comparison_cases():
    """(cells, interpretation, carrier cap): the cap keeps the
    reference's carriers over 2^16 out for the registered laws, and over
    2^14 for writer, whose xc-mu-T-h has 256 instances of 2^16 elements at
    size 2, and for the mutants, whose carriers of 2^16 are in cells
    without lambda."""
    from decagon.distlaw import (_mixed_interpretation, builtin_laws, compose_monads,
                                 monoidal_to_algebra, writer_over_powerset)

    laws = builtin_laws()
    cases = [(SIG.cells, law_interpretation(exception_over_powerset()), 70_000),
             (SIG.cells, law_interpretation(writer_over_powerset()), 20_000),
             (SIG.cells, law_interpretation(_per_member_law("adds-error", _adds_error)), 20_000),
             (SIG.cells, law_interpretation(_per_member_law("one-member-to-error",
                                                            _one_member_subsets_to_error)), 20_000),
             (mixed_signature().cells, _mixed_interpretation(laws["coreader-over-powerset"]),
              70_000)]
    for name in ("exception-over-powerset", "writer-over-powerset"):
        composite = compose_monads(monoidal_to_algebra(laws[name]))
        cases.append((MONAD_CELLS, _monad_interpretation(composite), 70_000))
    return cases


@pytest.mark.parametrize("cells,interp,cap", _comparison_cases(),
                         ids=lambda x: getattr(x, "name", None))
def test_join_generators_give_the_full_verdict(cells, interp, cap):
    # every cell the pass reduces gives the verdict, counts and witness of
    # the reference that runs every element of the whole source carrier, at
    # sizes <= 2; instances over the cap are skipped on both sides
    universe = TestUniverse.sizes(2)
    universe.carrier_cap = cap
    marks = _marks(cells, interp)
    assert marks
    caught = set()
    for name in sorted(marks):
        cell = cells[name]
        got = evaluate_cell(cell, interp, universe)
        assert _row(got) == _row(_per_instance_verdict(cell, interp, universe)), name
        if got.witness is not None:
            caught.add(name)
    if interp.name == "adds-error":
        assert caught == {"Omega", "Psi", "mu-diagram", "omega4"}
    elif interp.name == "one-member-to-error":
        assert {"Omega", "Psi", "mu-diagram", "omega4", "xc-alpha-e-mu"} <= caught
    else:
        assert caught == set()


def test_join_generators_give_the_full_verdict_of_the_largest_cell():
    # xc-alpha-e-mu at |X| = 2 has 19 generators for a carrier of 131,073;
    # the mutant's first failing instance runs again in full for its witness
    interp = law_interpretation(_per_member_law("one-member-to-error",
                                                _one_member_subsets_to_error))
    cell = SIG.cells["xc-alpha-e-mu"]
    got = evaluate_cell(cell, interp, U2)
    assert _row(got) == _row(_per_instance_verdict(cell, interp, U2))
    assert (got.checked, got.witness.at) == (3, "|X|=0")


@pytest.mark.parametrize("make", [exception_over_powerset,
                                  lambda: _per_member_law("one-member-to-error",
                                                          _one_member_subsets_to_error)],
                         ids=["passing", "mutant"])
def test_a_reduced_cell_builds_its_whole_source_for_its_first_failing_instance_only(
        make, monkeypatch):
    # the kernel reruns the first failing instance on the whole carrier for
    # its witness; no passing instance, refused instance or later failure
    # builds the whole source, and a passing cell never does
    from decagon.pasting.evaluate import _Side

    interp = law_interpretation(make())
    built, ran = [], []
    init, composite = _Side.__init__, _Side.composite

    def counting_init(self, *args):
        self.on_whole = args[-1] is None  # no mark
        built.append(self.on_whole)  # before a refusal can stop the build
        init(self, *args)

    def counting_composite(self, generics):
        ran.append(self.on_whole)
        return composite(self, generics)

    monkeypatch.setattr(_Side, "__init__", counting_init)
    monkeypatch.setattr(_Side, "composite", counting_composite)
    failed = 0
    for cap in (200_000, 300):  # at 300 some instances of each cell refuse
        universe = TestUniverse.sizes(2)
        universe.carrier_cap = cap
        for name in sorted(_marks(SIG.cells, interp)):
            built.clear()
            ran.clear()
            v = evaluate_cell(SIG.cells[name], interp, universe)
            whole = 2 if v.witness is not None else 0  # one side per path
            assert (built.count(True), ran.count(True)) == (whole, whole), name
            failed += v.witness is not None
    assert failed > 0 if interp.name == "one-member-to-error" else failed == 0


def test_a_side_that_refuses_pushes_no_element(monkeypatch):
    # under a lambda tabulated on sizes 0 and 1 only, the decagon's target
    # path needs a component at an object of size 4 and refuses; both
    # paths compile their prefixes before either pushes its source, so the
    # 65,536 elements of TPTPT(0) under powerset/powerset never reach a step
    import decagon.pasting.evaluate as evaluate
    from decagon.distlaw import DistLaw
    from decagon.elements import identity
    from decagon.functors import apply_obj, compose_functors
    from decagon.monads import builtin_monads
    from decagon.transforms import tabulated

    P = builtin_monads()["powerset"]
    PP = compose_functors(P.functor, P.functor)
    lam = tabulated(PP, PP, {X: identity(apply_obj(PP, X)) for X in U1.objects}, name="id")
    calls = []  # per compiled step, the elements given to it
    compiled_step = evaluate.compiled_step

    def counting(*args):
        fn, n = compiled_step(*args), len(calls)
        calls.append(0)

        def run(e):
            calls[n] += 1
            return fn(e)

        return run

    monkeypatch.setattr(evaluate, "compiled_step", counting)
    universe = TestUniverse.sizes(0)
    v = evaluate_cell(SIG.cells["Omega"], law_interpretation(DistLaw("id", P, P, lam)), universe)
    assert (v.checked, v.skipped) == (0, 1)
    assert len(apply_obj(compose_functors(*[P.functor] * 5), universe.objects[0])) == 65_536
    assert calls and max(calls) == 0
