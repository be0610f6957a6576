"""Workbench for finite many-valued logics: formulas, PNmatrix semantics,
Set-Set calculi with analytic proof search, algebra tools, automatic
axiomatization and interpolation constructions."""

from .formula import (
    Formula,
    app,
    parse_formula,
    parse_formula_set,
    render_formula,
    var,
)
from .semantics import (
    ConsequenceProblem,
    Fails,
    Holds,
    MultiAlgebra,
    PNMatrix,
    Sound,
    Unsound,
    check_consequence,
    check_rule_soundness,
    refine_matrix,
    solve_valuations,
    total_components,
)
from .calculus import (
    Calculus,
    Inconclusive,
    OutOfBudget,
    Proved,
    Refuted,
    Rule,
    SaturatedPartition,
    countermodel,
    countermodel_from_partition,
    prove,
    to_set_fmla_calculus,
    validate_tree,
)
from .algebra import (
    FiniteAlgebra,
    check_identity,
    check_inequality,
    congruences,
    filters,
    leibniz_and_reduce,
    residuum_of_meet,
    subalgebras,
    unary_term_functions,
    variety_profile,
)
from .registry import build_ten_valued, lookup, names

__all__ = [name for name in dir() if not name.startswith("_")]
