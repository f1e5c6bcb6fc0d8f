"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  All checks are exhaustive over their stated universes;
instances whose carriers exceed the cap (iterated powersets grow as towers
of exponentials) are counted as skipped and every axiom still evaluates at
least one instance.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from decagon.distlaw import (
    DistLaw,
    algebra_to_monoidal,
    algebra_to_noiter,
    check_algebra,
    check_beck,
    check_decagon,
    check_five_axiom,
    check_mixed_classic,
    check_mixed_decagon,
    check_noiter,
    compose_monads,
    coreader_over_powerset,
    exception_over_powerset,
    extend_to_kleisli,
    monoidal_to_algebra,
    noiter_to_algebra,
    writer_over_powerset,
)
from decagon.monads import (
    TestUniverse,
    builtin_monads,
    check_monad_extensive,
    check_monad_monoidal,
    exception_monad,
    extensive_to_monoidal,
    identity_monad,
    monoidal_to_extensive,
    powerset_monad,
)
from decagon.search import SearchSpec, candidate_matches, enumerate_candidates

U2 = TestUniverse.sizes(2)
U1 = TestUniverse.sizes(1)

REGISTERED_LAWS = [exception_over_powerset, writer_over_powerset]


@pytest.fixture
def announce(capsys):
    """Emit one pass/fail line per criterion through pytest's capture."""

    def _line(n, ok, text, t0):
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"{status} criterion {n}: {text} ({time.time() - t0:.1f}s)", flush=True)

    return _line


def test_criterion_1_builtin_monads_both_suites(announce):
    t0 = time.time()
    names = ["identity", "maybe", "exception", "exception2", "writer", "reader", "powerset"]
    ok = True
    for name in names:
        M = builtin_monads()[name]
        rep_m = check_monad_monoidal(M, U2)
        ext = monoidal_to_extensive(M)
        rep_e = check_monad_extensive(ext, U2)
        ok = ok and rep_m.ok and rep_e.ok
        assert rep_m.ok, rep_m.summary()
        assert rep_e.ok, rep_e.summary()
        back = extensive_to_monoidal(ext, M.functor, U2)
        for X in U2.objects:
            assert back.unit.component(X) == M.unit.component(X)
            assert back.mult.component(X) == M.mult.component(X)
        fwd = monoidal_to_extensive(back)
        for X in U2.objects:
            for Y in U2.objects:
                from decagon.elements import all_functions

                for f in all_functions(X, ext.obj(Y))[:6]:
                    assert fwd.ext(f) == ext.ext(f)
    announce(1, ok, "built-in monads pass monoidal and extensive suites; converters round-trip", t0)


def test_criterion_2_registered_laws_all_axiom_systems(announce):
    t0 = time.time()
    ok = True
    for make in REGISTERED_LAWS:
        law = make()
        alg = monoidal_to_algebra(law)
        reports = [
            check_beck(law, U2),
            check_decagon(law, U2),
            check_algebra(alg, U2),
            check_noiter(algebra_to_noiter(alg), U2),
            check_five_axiom(alg.alpha, law.T, law.P, U2, name=law.name),
        ]
        for rep in reports:
            ok = ok and rep.ok
            assert rep.ok, rep.summary()
    announce(2, ok, "both registered laws pass Beck-4, decagon-3, algebra-3, "
                 "no-iteration-3 and the five-axiom system", t0)


def test_criterion_3_round_trip_identities(announce):
    t0 = time.time()
    for make in REGISTERED_LAWS:
        law = make()
        alg = monoidal_to_algebra(law)
        back = algebra_to_monoidal(alg)
        for X in U2.objects:
            assert back.lam.component(X) == law.lam.component(X)
        ni = algebra_to_noiter(alg)
        back_alg = noiter_to_algebra(ni, U2, law.P)
        for X in U2.objects:
            assert back_alg.alpha.component(X) == alg.alpha.component(X)
    announce(3, True, "lambda -> alpha -> lambda and alpha -> op -> alpha are table identities", t0)


def _search_survivor_laws():
    spec1 = SearchSpec(exception_monad(["e"]), identity_monad(), form="all",
                       universe=TestUniverse.sizes(2))
    res1 = enumerate_candidates(spec1)
    spec2 = SearchSpec(exception_monad(["e"]), powerset_monad(), form="all",
                       universe=TestUniverse.sizes(1))
    res2 = enumerate_candidates(spec2)
    out = []
    for spec, res in [(spec1, res1), (spec2, res2)]:
        for survivor in res.survivors:
            out.append((DistLaw("survivor", spec.T, spec.P, survivor), spec.universe))
    return (spec1, res1), (spec2, res2), out


def test_criterion_4_three_axiom_implies_five_axiom(announce):
    t0 = time.time()
    violations = 0
    for make in REGISTERED_LAWS:
        law = make()
        alg = monoidal_to_algebra(law)
        if check_algebra(alg, U2).ok:
            if not check_five_axiom(alg.alpha, law.T, law.P, U2).ok:
                violations += 1
    _, _, survivor_laws = _search_survivor_laws()
    for law, universe in survivor_laws:
        alg = monoidal_to_algebra(law)
        if check_algebra(alg, universe).no_counterexample:
            if not check_five_axiom(alg.alpha, law.T, law.P, universe).no_counterexample:
                violations += 1
    assert violations == 0
    announce(4, True, f"3-axiom algebra form implies the 5-axiom form on all registered laws "
                   f"and {len(survivor_laws)} search survivors, zero violations", t0)


def test_criterion_5_composite_and_kleisli_extension(announce):
    t0 = time.time()
    for make in REGISTERED_LAWS:
        law = make()
        alg = monoidal_to_algebra(law)
        comp = compose_monads(alg)
        rep = check_monad_monoidal(comp, U2)
        assert rep.ok, rep.summary()
        assert all(v.checked > 0 for v in rep.verdicts)
        ext = extend_to_kleisli(alg)
        rep = check_monad_extensive(ext, U2)
        assert rep.ok, rep.summary()
    announce(5, True, "composite monads pass monad laws; Kleisli extensions pass the "
                   "extensive laws over Kleisli homs", t0)


def test_criterion_6_mixed_law_both_suites(announce):
    t0 = time.time()
    law = coreader_over_powerset()
    rep1 = check_mixed_decagon(law, U2)
    rep2 = check_mixed_classic(law, U2)
    assert rep1.ok, rep1.summary()
    assert rep2.ok, rep2.summary()
    announce(6, True, "coreader-over-powerset passes the mixed decagon and classical suites", t0)


def test_criterion_7_search(announce):
    t0 = time.time()
    (spec1, res1), (spec2, res2), _ = _search_survivor_laws()
    assert len(res1.survivors) == 1
    from decagon.elements import FinFn
    from decagon.functors import apply_obj

    survivor = res1.survivors[0]
    for X in spec1.universe.objects:
        TX = apply_obj(spec1.T.functor, X)
        assert survivor.component(X) == FinFn(TX, TX, lambda e: e)
    law = exception_over_powerset()
    assert any(candidate_matches(c, law.lam, spec2.universe) for c in res2.survivors)
    assert res1.forms_agree and res2.forms_agree
    announce(7, True, "exception/identity has the identity as unique survivor; the registered "
                   "law survives at size 1; Beck and decagon filters agree", t0)


def test_criterion_8_symbolic_layer(announce):
    t0 = time.time()
    from decagon.pasting import (
        boundary,
        build_H,
        build_kleisli_extension_cells,
        build_omega_from_pentagons,
        build_pentagons_from_omega,
        builtin_signature,
        check_axiom_degenerate,
        flatten,
        law_interpretation,
        normalize,
        occurrences_to_term,
    )
    from decagon.pasting.normalform import swap_adjacent
    from decagon.pasting.terms import IdCell, VComp

    sig = builtin_signature()
    expected = ["W1", "W2", "W3", "W4", "W5", "W6", "W7", "W8", "W9", "W10",
                "D1", "D2", "M1", "M2", "I1", "I2"]
    assert list(sig.axioms) == expected
    for name, (lhs, rhs) in sig.axioms.items():
        assert boundary(lhs, sig) == boundary(rhs, sig), name

    t_omega = build_omega_from_pentagons(sig)
    assert boundary(t_omega, sig) == (sig.cells["Omega"].src, sig.cells["Omega"].tgt)
    w4, w3 = build_pentagons_from_omega(sig)
    assert boundary(w4, sig) == (sig.cells["omega4"].src, sig.cells["omega4"].tgt)
    assert boundary(w3, sig) == (sig.cells["omega3"].src, sig.cells["omega3"].tgt)
    phi, theta, delta = build_kleisli_extension_cells(sig)
    for term, cell in [(phi, "phi"), (theta, "theta"), (delta, "delta")]:
        assert boundary(term, sig) == (sig.cells[cell].src, sig.cells[cell].tgt)
    t_h = build_H(sig)
    assert boundary(t_h, sig) == (sig.cells["H"].src, sig.cells["H"].tgt)

    # 100 randomized interchange-equivalent pairs normalize identically
    rng = random.Random(20260810)
    bases = [t_omega, w4, w3, phi, theta, delta, t_h] + \
            [sig.axioms[n][0] for n in expected] + \
            [sig.axioms[n][1] for n in ("W3", "W5", "D2", "M2", "I2")]
    checked_pairs = 0
    while checked_pairs < 100:
        base = rng.choice(bases)
        source, occs = flatten(base, sig)
        variants = []
        for _ in range(2):
            seq = list(occs)
            for _ in range(rng.randrange(0, 2 * max(1, len(seq)))):
                if len(seq) < 2:
                    break
                i = rng.randrange(len(seq) - 1)
                swapped = swap_adjacent(sig, seq[i], seq[i + 1])
                if swapped is not None:
                    seq[i], seq[i + 1] = swapped
            term = occurrences_to_term(sig, source, seq)
            if term is None:
                term = IdCell(source)
            if rng.random() < 0.5:
                term = VComp(IdCell(source), term)
            variants.append(term)
        n0 = normalize(base, sig)
        assert normalize(variants[0], sig) == n0
        assert normalize(variants[1], sig) == n0
        checked_pairs += 1

    interp = law_interpretation(exception_over_powerset())
    for name in expected:
        rep = check_axiom_degenerate(name, interp, U2, sig)
        assert rep.ok, rep.summary()
    announce(8, True, "signature parallel, builders boundary-correct, 100 randomized "
                   "interchange pairs normalize equal, all axioms pass degenerately", t0)


def test_criterion_9_cli_determinism(announce):
    t0 = time.time()
    args = [sys.executable, "-m", "decagon.cli", "check-law",
            "--law", "exception-over-powerset", "--form", "monoidal",
            "--max-size", "1"]
    outs = []
    for _ in range(2):
        proc = subprocess.run(args, capture_output=True, text=True)
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert set(payload) >= {"command", "universe", "verdicts", "witnesses",
                            "timing_ms", "exhaustive"}
    announce(9, True, "repeated CLI invocations are byte-identical", t0)
