"""Workbench for equilibrium logic with a nestable explicit negation.

Parse programs and theories with two negations, evaluate them under a
five-valued here-and-there semantics, compute answer sets and equilibrium
models by independent routes, decide weak/substitution equivalence with
counterexample synthesis, and rewrite programs to negation normal form and
regular solver-ready rules.
"""

from .core import (
    BOT,
    TOP,
    And,
    Atom,
    AtomRef,
    Bot,
    DNeg,
    ExplicitLiteral,
    FiveValue,
    Formula,
    Impl,
    InconsistentLiterals,
    Interpretation,
    NotNested,
    Or,
    Program,
    Rule,
    Theory,
    Top,
    X5Interpretation,
    XNeg,
    atom,
    atoms,
    canonical_print,
    iff,
    is_explicit,
    is_nested,
    is_regular,
    strong_iff,
    substitute,
)
from .equivalence import (
    EquivalentFormulas,
    EquivVerdict,
    PreconditionViolated,
    discriminating_context,
    is_valid,
    subst_equiv,
    theory_replace_check,
    weak_equiv,
)
from .parser import (
    ParseError,
    SourceSpan,
    parse_formula,
    parse_interpretation,
    parse_program,
    parse_theory,
)
from .reduct import (
    ferraris_minus,
    ferraris_plus,
    reduct_nested,
    reduct_program,
    reduct_rule,
)
from .semantics import (
    EvalMode,
    classical_sat,
    fals,
    is_model,
    sat,
    value5,
    x5_fals,
    x5_sat,
)
from .solver import (
    InternalInconsistency,
    NotExplicit,
    SignatureTooLarge,
    SolveOptions,
    answer_sets,
    enumerate_interpretations,
    enumerate_x5,
    equilibrium_models,
    equilibrium_models_ferraris,
    minimal_models_explicit,
)
from .transform import (
    CrossEncoding,
    NotInNNF,
    NotRegular,
    RewriteBudgetExceeded,
    cross_encode,
    export_asp,
    is_nnf,
    simplify_constants,
    to_nnf,
    to_nnf_program,
    to_regular,
    verify_rewrite_rules,
)

__version__ = "0.1.0"
