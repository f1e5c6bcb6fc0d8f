"""The built-in signature: coherence cells and axioms for a distributive
law at the pseudo level, plus the construction builders.

Arrow generators: u: 1 -> T, m: TT -> T, eta: 1 -> P, mu: PP -> P,
lambda: TP -> PT, alpha: TPT -> PT, and generic morphisms f: X -> PTY,
g: Y -> PTZ, h: Z -> PTW over formal object symbols X, Y, Z, W.

Cell generators: the four pentagon/triangle modifications omega1..omega4,
the decagon Omega, the algebra-form cells psi1, psi2, Psi, the
op-homomorphism square H and the five-axiom squares algebra-mult and
mu-diagram, the extension cells phi, theta, delta, monad structure cells
(two units and associativity for each monad), and the interchanger squares
the axiom pastings route through.  Each axiom is a pair of parallel
pasting terms produced by a path rewrite script; the scripts mirror the
pasting diagrams region by region.

A second, axiom-free signature over a comonad L and a monad R holds the
comonad laws and the cells of the two mixed-law axiom systems.
"""

from __future__ import annotations

from functools import lru_cache

from .signature import PathScript, Signature, SignatureBuilder
from .terms import PastingTerm
from .words import Path


def _builder() -> SignatureBuilder:
    b = SignatureBuilder("TPXYZW")
    b.arrow("u", "", "T")
    b.arrow("m", "TT", "T")
    b.arrow("eta", "", "P")
    b.arrow("mu", "PP", "P")
    b.arrow("lambda", "TP", "PT")
    b.arrow("alpha", "TPT", "PT")
    b.arrow("f", "X", "PTY")
    b.arrow("g", "Y", "PTZ")
    b.arrow("h", "Z", "PTW")

    A, P = b.atom, b.path

    # monad structure cells (pseudomonad unitors and associators)
    b.cell("unit-l-T", P([A("", "u", "T"), A("", "m", "")]), P([], "T"))
    b.cell("unit-r-T", P([A("T", "u", ""), A("", "m", "")]), P([], "T"))
    b.cell("assoc-T", P([A("T", "m", ""), A("", "m", "")]), P([A("", "m", "T"), A("", "m", "")]))
    b.cell("unit-l-P", P([A("", "eta", "P"), A("", "mu", "")]), P([], "P"))
    b.cell("unit-r-P", P([A("P", "eta", ""), A("", "mu", "")]), P([], "P"))
    b.cell("assoc-P", P([A("P", "mu", ""), A("", "mu", "")]), P([A("", "mu", "P"), A("", "mu", "")]))

    # distributive-law modifications
    b.cell("omega1", P([A("", "u", "P"), A("", "lambda", "")]), P([A("P", "u", "")]))
    b.cell("omega2", P([A("T", "eta", ""), A("", "lambda", "")]), P([A("", "eta", "T")]))
    b.cell(
        "omega3",
        P([A("", "m", "P"), A("", "lambda", "")]),
        P([A("T", "lambda", ""), A("", "lambda", "T"), A("P", "m", "")]),
    )
    b.cell(
        "omega4",
        P([A("T", "mu", ""), A("", "lambda", "")]),
        P([A("", "lambda", "P"), A("P", "lambda", ""), A("", "mu", "T")]),
    )
    b.cell(
        "Omega",
        P([A("TP", "lambda", "T"), A("TPP", "m", ""), A("T", "mu", "T"),
           A("", "lambda", "T"), A("P", "m", "")]),
        P([A("", "lambda", "TPT"), A("P", "m", "PT"), A("P", "lambda", "T"),
           A("PP", "m", ""), A("", "mu", "T")]),
    )

    # algebra-form modifications
    b.cell("psi1", P([], "PT"), P([A("", "u", "PT"), A("", "alpha", "")]))
    b.cell(
        "psi2",
        P([A("T", "eta", "T"), A("", "alpha", "")]),
        P([A("", "m", ""), A("", "eta", "T")]),
    )
    b.cell(
        "Psi",
        P([A("TP", "alpha", ""), A("T", "mu", "T"), A("", "alpha", "")]),
        P([A("", "alpha", "PT"), A("P", "alpha", ""), A("", "mu", "T")]),
    )
    b.cell(
        "H",
        P([A("TP", "m", ""), A("", "alpha", "")]),
        P([A("", "alpha", "T"), A("P", "m", "")]),
    )
    # the remaining two squares of the five-axiom system for alpha
    b.cell(
        "algebra-mult",
        P([A("T", "alpha", ""), A("", "alpha", "")]),
        P([A("", "m", "PT"), A("", "alpha", "")]),
    )
    b.cell(
        "mu-diagram",
        P([A("TP", "u", "PT"), A("", "alpha", "PT"), A("P", "alpha", ""), A("", "mu", "T")]),
        P([A("T", "mu", "T"), A("", "alpha", "")]),
    )

    # Kleisli-extension cells over the generic morphisms
    b.cell(
        "phi",
        P([A("", "f", "")]),
        P([A("", "u", "X"), A("", "eta", "TX"), A("PT", "f", ""),
           A("P", "lambda", "TY"), A("PP", "m", "Y"), A("", "mu", "TY")]),
    )
    b.cell(
        "theta",
        P([A("T", "u", "X"), A("T", "eta", "TX"), A("", "lambda", "TX"), A("P", "m", "X")]),
        P([A("", "eta", "TX")]),
    )
    b.cell(
        "delta",
        P([A("T", "f", ""), A("TPT", "g", ""), A("TP", "lambda", "TZ"), A("TPP", "m", "Z"),
           A("T", "mu", "TZ"), A("", "lambda", "TZ"), A("P", "m", "Z")]),
        P([A("T", "f", ""), A("", "lambda", "TY"), A("P", "m", "Y"), A("PT", "g", ""),
           A("P", "lambda", "TZ"), A("PP", "m", "Z"), A("", "mu", "TZ")]),
    )
    return b


def _script(b: SignatureBuilder, atoms: list, start: str | None = None) -> PathScript:
    return PathScript(b, b.path(atoms, start))


def _axioms(b: SignatureBuilder) -> None:
    A, P = b.atom, b.path

    lam = [A("", "lambda", "")]

    # W1: the unit of the monoidal-form pentagon data is absorbed
    s = _script(b, lam)
    s.apply("unit-r-T", 0, inverse=True, left="")
    s.apply("omega3", 1)
    s.apply("omega1", 0)
    s.slide(0)
    s.apply("unit-r-T", 1)
    b.axiom("W1", s.done(b.path(lam)), _id_term(b, b.path(lam)))

    # W2
    s = _script(b, lam)
    s.apply("unit-l-P", 0, inverse=True, left="T")
    s.apply("omega4", 1)
    s.apply("omega2", 0)
    s.slide(0)
    s.apply("unit-l-P", 1)
    b.axiom("W2", s.done(b.path(lam)), _id_term(b, b.path(lam)))

    # W3: associativity coherence of omega3
    w3_src = [A("TT", "lambda", ""), A("T", "lambda", "T"), A("", "lambda", "TT"),
              A("PT", "m", ""), A("P", "m", "")]
    w3_tgt = b.path([A("", "m", "TP"), A("", "m", "P"), A("", "lambda", "")])
    s = _script(b, w3_src)
    s.slide(2)
    s.apply("omega3", 0, inverse=True)
    s.apply("omega3", 1, inverse=True)
    s.apply("assoc-T", 0)
    lhs = s.done(w3_tgt)
    s = _script(b, w3_src)
    s.apply("assoc-T", 3)
    s.apply("omega3", 1, inverse=True)
    s.slide(0)
    s.apply("omega3", 1, inverse=True)
    rhs = s.done(w3_tgt)
    b.axiom("W3", lhs, rhs)

    # W4: associativity coherence of omega4
    w4_src = [A("", "lambda", "PP"), A("P", "lambda", "P"), A("PP", "lambda", ""),
              A("", "mu", "PT"), A("", "mu", "T")]
    w4_tgt = b.path([A("TP", "mu", ""), A("T", "mu", ""), A("", "lambda", "")])
    s = _script(b, w4_src)
    s.slide(2)
    s.apply("omega4", 0, inverse=True)
    s.apply("omega4", 1, inverse=True)
    s.apply("assoc-P", 0, inverse=True)
    lhs = s.done(w4_tgt)
    s = _script(b, w4_src)
    s.apply("assoc-P", 3, inverse=True)
    s.apply("omega4", 1, inverse=True)
    s.slide(0)
    s.apply("omega4", 1, inverse=True)
    rhs = s.done(w4_tgt)
    b.axiom("W4", lhs, rhs)

    # W5: compatibility of the two pentagons
    w5_src = [A("TT", "mu", ""), A("T", "lambda", ""), A("", "lambda", "T"), A("P", "m", "")]
    w5_tgt = b.path([A("", "m", "PP"), A("", "lambda", "P"), A("P", "lambda", ""),
                     A("", "mu", "T")])
    s = _script(b, w5_src)
    s.apply("omega4", 0)
    s.apply("omega4", 2)
    s.slide(4)
    s.slide(1)
    s.apply("omega3", 2, inverse=True)
    s.apply("omega3", 0, inverse=True)
    lhs = s.done(w5_tgt)
    s = _script(b, w5_src)
    s.apply("omega3", 1, inverse=True)
    s.slide(0)
    s.apply("omega4", 1)
    rhs = s.done(w5_tgt)
    b.axiom("W5", lhs, rhs)

    # W6..W7: redundant unit compatibilities
    s = _script(b, lam)
    s.apply("unit-l-T", 0, inverse=True, left="")
    s.apply("omega3", 1)
    s.slide(0)
    s.apply("omega1", 1)
    s.apply("unit-l-T", 1)
    b.axiom("W6", s.done(b.path(lam)), _id_term(b, b.path(lam)))

    s = _script(b, lam)
    s.apply("unit-r-P", 0, inverse=True, left="T")
    s.apply("omega4", 1)
    s.slide(0)
    s.apply("omega2", 1)
    s.apply("unit-r-P", 1)
    b.axiom("W7", s.done(b.path(lam)), _id_term(b, b.path(lam)))

    # W8: two routes from T^2 eta to eta T over m
    w8_src = [A("TT", "eta", ""), A("T", "lambda", ""), A("", "lambda", "T"), A("P", "m", "")]
    w8_tgt = b.path([A("", "m", ""), A("", "eta", "T")])
    s = _script(b, w8_src)
    s.apply("omega3", 1, inverse=True)
    s.slide(0)
    s.apply("omega2", 1)
    lhs = s.done(w8_tgt)
    s = _script(b, w8_src)
    s.apply("omega2", 0)
    s.apply("omega2", 0)
    s.slide(0)
    rhs = s.done(w8_tgt)
    b.axiom("W8", lhs, rhs)

    # W9: dual of W8 for the units of P
    w9_src = [A("", "u", "PP"), A("", "lambda", "P"), A("P", "lambda", ""), A("", "mu", "T")]
    w9_tgt = b.path([A("", "mu", ""), A("P", "u", "")])
    s = _script(b, w9_src)
    s.apply("omega4", 1, inverse=True)
    s.slide(0)
    s.apply("omega1", 1)
    lhs = s.done(w9_tgt)
    s = _script(b, w9_src)
    s.apply("omega1", 0)
    s.apply("omega1", 0)
    s.slide(0)
    rhs = s.done(w9_tgt)
    b.axiom("W9", lhs, rhs)

    # W10: the two unit triangles agree across the units' interchange
    w10_src = [A("", "eta", ""), A("P", "u", "")]
    w10_tgt = b.path([A("", "u", ""), A("", "eta", "T")])
    s = _script(b, w10_src)
    s.apply("omega1", 1, inverse=True)
    s.slide(0)
    s.apply("omega2", 1)
    lhs = s.done(w10_tgt)
    s = _script(b, w10_src)
    s.slide(0)
    rhs = s.done(w10_tgt)
    b.axiom("W10", lhs, rhs)

    # D1: the decagon absorbs both units
    d1_path = [A("", "lambda", "T"), A("P", "m", "")]
    s = _script(b, d1_path)
    s.apply("unit-l-P", 0, inverse=True, left="T", )
    s.apply("unit-l-T", 1, inverse=True, left="TPP")
    s.apply("omega1", 1, inverse=True)
    s.apply("Omega", 2)
    s.slide(0)
    s.apply("omega2", 1)
    s.slide(1)
    s.apply("unit-r-T", 0)
    s.slide(0)
    s.slide(1)
    s.apply("unit-l-P", 2)
    b.axiom("D1", s.done(b.path(d1_path)), _id_term(b, b.path(d1_path)))

    # D2: the decagon is associative: both bracketings of a triple agree
    d2_src = [A("TPTP", "lambda", "T"), A("TPTPP", "m", ""), A("TPT", "mu", "T"),
              A("TP", "lambda", "T"), A("TPP", "m", ""), A("T", "mu", "T"),
              A("", "lambda", "T"), A("P", "m", "")]
    d2_tgt = b.path([A("", "lambda", "TPTPT"), A("P", "m", "PTPT"), A("P", "lambda", "TPT"),
                     A("PP", "m", "PT"), A("", "mu", "TPT"), A("P", "lambda", "T"),
                     A("PP", "m", ""), A("", "mu", "T")])
    s = _script(b, d2_src)
    s.apply("Omega", 3)
    s.slide(2)
    s.slide(1)
    s.slide(0)
    s.slide(3)
    s.slide(2)
    s.slide(1)
    s.apply("Omega", 2, left="P")
    s.apply("assoc-P", 6)
    s.slide(5)
    s.slide(4)
    lhs = s.done(d2_tgt)
    s = _script(b, d2_src)
    s.apply("Omega", 0, left="TP")
    s.apply("assoc-P", 4, left="T")
    s.slide(3)
    s.slide(2)
    s.apply("Omega", 3)
    s.apply("Omega", 0, left="")
    rhs = s.done(d2_tgt)
    b.axiom("D2", lhs, rhs)

    # M1: the algebra-form pasting absorbs both units
    alpha = [A("", "alpha", "")]
    s = _script(b, alpha)
    s.apply("unit-l-P", 0, inverse=True, left="T")
    s.apply("psi1", 1, left="TP")
    s.apply("Psi", 2)
    s.slide(0)
    s.apply("psi2", 1)
    s.apply("unit-r-T", 0)
    s.slide(0)
    s.apply("unit-l-P", 1)
    b.axiom("M1", s.done(b.path(alpha)), _id_term(b, b.path(alpha)))

    # M2: hexagon coherence, both bracketings of a triple agree
    m2_src = [A("TPTP", "alpha", ""), A("TPT", "mu", "T"), A("TP", "alpha", ""),
              A("T", "mu", "T"), A("", "alpha", "")]
    m2_tgt = b.path([A("", "alpha", "PTPT"), A("P", "alpha", "PT"), A("", "mu", "TPT"),
                     A("P", "alpha", ""), A("", "mu", "T")])
    s = _script(b, m2_src)
    s.apply("Psi", 2)
    s.slide(1)
    s.slide(0)
    s.apply("Psi", 1, left="P")
    s.apply("assoc-P", 3)
    s.slide(2)
    lhs = s.done(m2_tgt)
    s = _script(b, m2_src)
    s.apply("Psi", 0, left="TP")
    s.apply("assoc-P", 2, left="T")
    s.slide(1)
    s.apply("Psi", 2)
    s.apply("Psi", 0, left="")
    rhs = s.done(m2_tgt)
    b.axiom("M2", lhs, rhs)

    # I1: the no-iteration unit equation, expanded over a generic g
    i1_path = [A("T", "g", ""), A("", "alpha", "Z")]
    s = _script(b, i1_path)
    s.apply("psi1", 1, left="T")
    s.slide(0)
    s.apply("unit-l-P", 3, inverse=True, left="T")
    s.slide(2)
    s.slide(1)
    s.apply("Psi", 3)
    s.slide(2)
    s.apply("psi2", 1)
    s.apply("unit-r-T", 0)
    s.slide(0)
    s.slide(1)
    s.apply("unit-l-P", 2)
    b.axiom("I1", s.done(b.path(i1_path)), _id_term(b, b.path(i1_path)))

    # I2: the no-iteration associativity equation over generic f, g, h
    i2_src = [A("T", "f", ""), A("TPT", "g", ""), A("TPTPT", "h", ""),
              A("TPTP", "alpha", "W"), A("TPT", "mu", "TW"), A("TP", "alpha", "W"),
              A("T", "mu", "TW"), A("", "alpha", "W")]
    i2_tgt = b.path([A("T", "f", ""), A("", "alpha", "Y"), A("PT", "g", ""),
                     A("P", "alpha", "Z"), A("", "mu", "TZ"), A("PT", "h", ""),
                     A("P", "alpha", "W"), A("", "mu", "TW")])
    s = _script(b, i2_src)
    s.apply("Psi", 5)
    s.slide(4)
    s.slide(3)
    s.slide(2)
    s.slide(1)
    s.apply("Psi", 4, left="P")
    s.slide(3)
    s.apply("assoc-P", 6)
    s.slide(5)
    s.slide(4)
    lhs = s.done(i2_tgt)
    s = _script(b, i2_src)
    s.apply("Psi", 3, left="TP")
    s.slide(2)
    s.apply("assoc-P", 5, left="T")
    s.slide(4)
    s.slide(3)
    s.apply("Psi", 5)
    s.slide(4)
    s.apply("Psi", 2)
    s.slide(1)
    rhs = s.done(i2_tgt)
    b.axiom("I2", lhs, rhs)


def _id_term(b: SignatureBuilder, path: Path) -> PastingTerm:
    from .terms import IdCell

    return IdCell(path)


@lru_cache(maxsize=1)
def builtin_signature() -> Signature:
    b = _builder()
    _axioms(b)
    # run the construction scripts once so the interchangers they route
    # through are part of the shipped signature
    probe = Signature(b.alphabet, b.arrows, b.cells, {})
    _omega_script(b, probe)
    _pentagon_scripts(b, probe)
    _extension_scripts(b, probe)
    _h_script(b, probe)
    return b.build()


@lru_cache(maxsize=1)
def mixed_signature() -> Signature:
    """Comonad L (epsilon: L -> 1, delta: L -> LL), monad R (eta, mu) and
    lambda: LR -> RL: the comonad laws, the two triangles, the two
    pentagons and the mixed decagon from LRR to RLL."""
    b = SignatureBuilder("LR")
    b.arrow("epsilon", "L", "")
    b.arrow("delta", "L", "LL")
    b.arrow("eta", "", "R")
    b.arrow("mu", "RR", "R")
    b.arrow("lambda", "LR", "RL")

    A, P = b.atom, b.path
    b.cell("counit-l-L", P([A("", "delta", ""), A("", "epsilon", "L")]), P([], "L"))
    b.cell("counit-r-L", P([A("", "delta", ""), A("L", "epsilon", "")]), P([], "L"))
    b.cell(
        "coassoc-L",
        P([A("", "delta", ""), A("", "delta", "L")]),
        P([A("", "delta", ""), A("L", "delta", "")]),
    )
    b.cell(
        "epsilon-triangle",
        P([A("", "lambda", ""), A("R", "epsilon", "")]),
        P([A("", "epsilon", "R")]),
    )
    b.cell("eta-triangle", P([A("L", "eta", ""), A("", "lambda", "")]), P([A("", "eta", "L")]))
    b.cell(
        "delta-pentagon",
        P([A("", "lambda", ""), A("R", "delta", "")]),
        P([A("", "delta", "R"), A("L", "lambda", ""), A("", "lambda", "L")]),
    )
    b.cell(
        "mu-pentagon",
        P([A("L", "mu", ""), A("", "lambda", "")]),
        P([A("", "lambda", "R"), A("R", "lambda", ""), A("", "mu", "L")]),
    )
    b.cell(
        "mixed-decagon",
        P([A("", "lambda", "R"), A("R", "delta", "R"), A("RL", "lambda", ""),
           A("R", "lambda", "L"), A("", "mu", "LL")]),
        P([A("", "delta", "RR"), A("L", "lambda", "R"), A("LR", "lambda", ""),
           A("L", "mu", "L"), A("", "lambda", "L")]),
    )
    return b.build()


# ---------------------------------------------------------------------------
# construction builders


def _omega_script(b: SignatureBuilder, sig: Signature) -> PastingTerm:
    s = PathScript(b, sig.cells["Omega"].src)
    s.apply("omega4", 2)
    s.slide(4)
    s.slide(1)
    s.slide(0)
    s.slide(2)
    s.apply("assoc-T", 3)
    s.apply("omega3", 1, inverse=True)
    return s.done(sig.cells["Omega"].tgt)


def _pentagon_scripts(b: SignatureBuilder, sig: Signature) -> tuple[PastingTerm, PastingTerm]:
    s = PathScript(b, sig.cells["omega4"].src)
    s.apply("unit-r-T", 2, inverse=True, left="P")
    s.slide(1)
    s.slide(0)
    s.apply("unit-l-T", 1, inverse=True, left="TPP")
    s.apply("omega1", 1, inverse=True)
    s.apply("Omega", 2)
    s.slide(1)
    s.apply("unit-r-T", 2)
    s.slide(0)
    s.slide(1)
    s.apply("unit-r-T", 2)
    omega4 = s.done(sig.cells["omega4"].tgt)

    s = PathScript(b, sig.cells["omega3"].src)
    s.apply("unit-r-T", 2, inverse=True, left="P")
    s.slide(1)
    s.slide(0)
    s.apply("unit-l-P", 4, inverse=True, left="")
    s.slide(3)
    s.slide(2)
    s.slide(1)
    s.apply("omega2", 1, inverse=True)
    s.apply("Omega", 2, inverse=True)
    s.slide(0)
    s.slide(1)
    s.apply("unit-r-T", 2)
    s.slide(0)
    s.apply("unit-l-P", 1)
    omega3 = s.done(sig.cells["omega3"].tgt)
    return omega4, omega3


def _extension_scripts(b: SignatureBuilder, sig: Signature):
    s = PathScript(b, sig.cells["phi"].src)
    s.apply("unit-l-P", 1, inverse=True, left="")
    s.apply("unit-l-T", 1, inverse=True, left="P")
    s.apply("omega1", 1, inverse=True)
    s.slide(0)
    s.slide(3)
    s.slide(2)
    s.slide(1)
    phi = s.done(sig.cells["phi"].tgt)

    s = PathScript(b, sig.cells["theta"].src)
    s.apply("omega2", 1)
    s.slide(1)
    s.apply("unit-r-T", 0)
    theta = s.done(sig.cells["theta"].tgt)

    s = PathScript(b, sig.cells["delta"].src)
    s.apply("Omega", 2)
    s.slide(1)
    s.slide(2)
    delta = s.done(sig.cells["delta"].tgt)
    return phi, theta, delta


def _h_script(b: SignatureBuilder, sig: Signature) -> PastingTerm:
    s = PathScript(b, sig.cells["H"].src)
    s.apply("unit-r-P", 1, inverse=True, left="T")
    s.apply("psi2", 0, inverse=True, left="TP")
    s.apply("Psi", 1)
    s.slide(0)
    s.apply("psi2", 1)
    s.apply("unit-r-P", 2)
    return s.done(sig.cells["H"].tgt)


def build_omega_from_pentagons(sig: Signature) -> PastingTerm:
    """The decagon pasted from the two pentagons, one whiskered by T on the
    right and one by P on the left, around the associativity square."""
    return _omega_script(_from_signature(sig), sig)


def build_pentagons_from_omega(sig: Signature) -> tuple[PastingTerm, PastingTerm]:
    """Recover the two pentagons from the decagon, inserting units and
    cancelling them against the triangles; returns (omega4, omega3)."""
    return _pentagon_scripts(_from_signature(sig), sig)


def build_kleisli_extension_cells(sig: Signature) -> tuple[PastingTerm, PastingTerm, PastingTerm]:
    """The unit, counit and composition cells of the extension of T to the
    Kleisli side, pasted from omega1, omega2 and the decagon."""
    return _extension_scripts(_from_signature(sig), sig)


def build_H(sig: Signature) -> PastingTerm:
    """The op-homomorphism square pasted from Psi and the psi2 inverses."""
    return _h_script(_from_signature(sig), sig)


def _from_signature(sig: Signature) -> SignatureBuilder:
    """A builder seeded with the signature's generators, so scripts can
    register any interchanger they need."""
    b = SignatureBuilder("".join(sig.alphabet))
    b.arrows = dict(sig.arrows)
    b.cells = dict(sig.cells)
    return b
