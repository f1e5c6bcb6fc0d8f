"""Finite-instance engine for distributive laws of monads.

The package checks the four equivalent presentations of a distributive law
(Beck's triangles and pentagons, the single decagon condition, the algebra
form alpha: TPT -> PT, and the no-iteration extension-operator form) by
exhaustive evaluation over small finite carriers, converts between the
presentations, builds composite monads and Kleisli extensions, searches
for laws by brute force, and carries a symbolic free 2-category layer for
the pseudo-level coherence axioms with degenerate concrete evaluation.
"""

from .elements import (
    Atom,
    CompositionError,
    Element,
    FinFn,
    FinSet,
    FnTable,
    Inl,
    Inr,
    Pair,
    Subset,
    all_functions,
    atoms,
    compose,
    fn_table,
    identity,
    subset,
)
from .functors import (
    Comp,
    Const,
    Exp,
    FunctorExpr,
    Id,
    Power,
    Prod,
    Sum,
    apply_elem,
    apply_mor,
    apply_obj,
    compose_functors,
)
from .transforms import ComponentUnavailable, NatTrans, OversizeCarrier, formula, tabulated
from .monads import (
    BASE_CATEGORY,
    Category,
    ComonadMonoidal,
    ConstructionRefused,
    MonadExtensive,
    MonadMonoidal,
    Monoid,
    builtin_monads,
    check_category,
    check_comonad,
    check_monad_extensive,
    check_monad_monoidal,
    extensive_to_monoidal,
    kleisli,
    monad_from_config,
    monoidal_to_extensive,
)
from .report import AxiomVerdict, LawReport, TestUniverse, Witness
from .distlaw import (
    DistLaw,
    DistLawAlgebra,
    DistLawNoIteration,
    MixedLaw,
    algebra_to_monoidal,
    algebra_to_noiter,
    builtin_laws,
    check_algebra,
    check_beck,
    check_decagon,
    check_five_axiom,
    check_mixed_classic,
    check_mixed_decagon,
    check_noiter,
    compose_monads,
    extend_to_kleisli,
    law_from_config,
    monoidal_to_algebra,
    noiter_to_algebra,
)
from .search import BudgetExceeded, SearchResult, SearchSpec, enumerate_candidates, refute

__version__ = "0.1.0"
