"""The shipped signatures and the construction builders.

The built-in signature declares, over the alphabet T P X Y Z W:

- arrow generators u: 1 -> T, m: TT -> T, eta: 1 -> P, mu: PP -> P,
  lambda: TP -> PT, alpha: TPT -> PT, and generic morphisms f: X -> PTY,
  g: Y -> PTZ, h: Z -> PTW over formal object symbols X, Y, Z, W;
- cell generators: the four pentagon/triangle modifications
  omega1..omega4, the decagon Omega, the algebra-form cells psi1, psi2,
  Psi, the op-homomorphism square H and the five-axiom squares
  algebra-mult and mu-diagram, the extension cells phi, theta, delta, the
  monad structure cells (two units and associativity for each monad), and
  the interchanger squares the axiom pastings route through;
- the sixteen axioms W1-W10, D1-D2, M1-M2, I1-I2, each a pair of parallel
  pasting terms.

The mixed signature, over a comonad L and a monad R, declares no axioms,
only the comonad laws and the cells of the two mixed-law axiom systems.

Both are defined by their packaged assets, ``assets/builtin_signature.sexp``
and ``assets/mixed_signature.sexp``, which are parsed and validated on load
by the same ``parse_signature`` that reads a user's ``--signature`` file.
To add an axiom, take ``sig = builtin_signature().copy()``, derive its two
sides with ``PathScript(sig, ...)``, which registers in ``sig`` any
interchanger the derivation slides through, set ``sig.axioms[name] = (lhs,
rhs)``, call ``sig.validate()`` and commit ``signature_to_text(sig)`` as the
asset.
"""

from __future__ import annotations

from functools import lru_cache
from importlib.resources import files

from .signature import PathScript, Signature, parse_signature
from .terms import PastingTerm


def _load(name: str) -> Signature:
    return parse_signature((files(__package__) / "assets" / f"{name}.sexp").read_text("utf-8"))


@lru_cache(maxsize=1)
def builtin_signature() -> Signature:
    return _load("builtin_signature")


@lru_cache(maxsize=1)
def mixed_signature() -> Signature:
    """Comonad L (epsilon: L -> 1, delta: L -> LL), monad R (eta, mu) and
    lambda: LR -> RL: the comonad laws, the two triangles, the two
    pentagons and the mixed decagon from LRR to RLL."""
    return _load("mixed_signature")


# ---------------------------------------------------------------------------
# construction builders
#
# Each builder pastes in ``sig`` and registers there every interchanger its
# script slides through, so the terms it returns are checked against ``sig``
# afterwards; pass ``sig.copy()`` to keep a signature as it is.


def build_omega_from_pentagons(sig: Signature) -> PastingTerm:
    """The decagon pasted from the two pentagons, one whiskered by T on the
    right and one by P on the left, around the associativity square."""
    s = PathScript(sig, sig.cells["Omega"].src)
    s.apply("omega4", 2)
    s.slide(4)
    s.slide(1)
    s.slide(0)
    s.slide(2)
    s.apply("assoc-T", 3)
    s.apply("omega3", 1, inverse=True)
    return s.done(sig.cells["Omega"].tgt)


def build_pentagons_from_omega(sig: Signature) -> tuple[PastingTerm, PastingTerm]:
    """Recover the two pentagons from the decagon, inserting units and
    cancelling them against the triangles; returns (omega4, omega3)."""
    s = PathScript(sig, sig.cells["omega4"].src)
    s.apply("unit-r-T", 2, inverse=True, left="P")
    s.slide(1)
    s.slide(0)
    s.apply("unit-l-T", 1, inverse=True, left="T P P")
    s.apply("omega1", 1, inverse=True)
    s.apply("Omega", 2)
    s.slide(1)
    s.apply("unit-r-T", 2)
    s.slide(0)
    s.slide(1)
    s.apply("unit-r-T", 2)
    omega4 = s.done(sig.cells["omega4"].tgt)

    s = PathScript(sig, sig.cells["omega3"].src)
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


def build_kleisli_extension_cells(sig: Signature) -> tuple[PastingTerm, PastingTerm, PastingTerm]:
    """The unit, counit and composition cells of the extension of T to the
    Kleisli side, pasted from omega1, omega2 and the decagon."""
    s = PathScript(sig, sig.cells["phi"].src)
    s.apply("unit-l-P", 1, inverse=True, left="")
    s.apply("unit-l-T", 1, inverse=True, left="P")
    s.apply("omega1", 1, inverse=True)
    s.slide(0)
    s.slide(3)
    s.slide(2)
    s.slide(1)
    phi = s.done(sig.cells["phi"].tgt)

    s = PathScript(sig, sig.cells["theta"].src)
    s.apply("omega2", 1)
    s.slide(1)
    s.apply("unit-r-T", 0)
    theta = s.done(sig.cells["theta"].tgt)

    s = PathScript(sig, sig.cells["delta"].src)
    s.apply("Omega", 2)
    s.slide(1)
    s.slide(2)
    delta = s.done(sig.cells["delta"].tgt)
    return phi, theta, delta


def build_H(sig: Signature) -> PastingTerm:
    """The op-homomorphism square pasted from Psi and the psi2 inverses."""
    s = PathScript(sig, sig.cells["H"].src)
    s.apply("unit-r-P", 1, inverse=True, left="T")
    s.apply("psi2", 0, inverse=True, left="T P")
    s.apply("Psi", 1)
    s.slide(0)
    s.apply("psi2", 1)
    s.apply("unit-r-P", 2)
    return s.done(sig.cells["H"].tgt)

