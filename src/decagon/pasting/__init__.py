"""Symbolic free strict 2-category layer over a computad of functor words.

0-cells are words in functor symbols, 1-cells are paths of whiskered arrow
generators, 2-cells are pastings of whiskered cell generators.  The built-in
signature declares the coherence data and axiom catalogue for a
pseudodistributive law together with pseudomonad structure cells and the
interchanger squares the axiom pastings need.
"""

from .words import Word, ArrowGen, ArrowAtom, Path
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
    cells_used,
)
from .normalform import NormalPasting, Occurrence, flatten, normalize, occurrences_to_term
from .signature import Signature, PathScript, parse_signature, signature_to_text
from .builtin import (
    builtin_signature,
    mixed_signature,
    build_H,
    build_kleisli_extension_cells,
    build_omega_from_pentagons,
    build_pentagons_from_omega,
)
from .evaluate import (
    Interpretation,
    check_axiom_degenerate,
    check_cells,
    evaluate_cell,
    identity_interpretation,
    law_interpretation,
)

__all__ = [
    "Word", "ArrowGen", "ArrowAtom", "Path",
    "CellGen", "CellRef", "IdCell", "Whisker", "VComp", "HComp", "Inverse",
    "PastingTerm", "boundary", "BoundaryError", "cells_used",
    "Occurrence", "NormalPasting", "flatten", "normalize", "occurrences_to_term",
    "Signature", "PathScript", "parse_signature", "signature_to_text",
    "builtin_signature", "mixed_signature", "build_omega_from_pentagons", "build_pentagons_from_omega",
    "build_kleisli_extension_cells", "build_H",
    "Interpretation", "check_axiom_degenerate", "check_cells", "evaluate_cell",
    "identity_interpretation", "law_interpretation",
]
