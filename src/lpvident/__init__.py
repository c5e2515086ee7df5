"""Structural identifiability of LPV and quasi-LPV state-space models.

The pipeline stacks output derivatives (or shifts), eliminates the state
trajectory through a left null-space over the rational-function field,
reads the exhaustive summary off the resulting input-output-parameter
equations, and classifies each parameter as globally identifiable, locally
identifiable with a finite solution count, or non-identifiable.
"""

from .classify import (GLOBAL, LOCAL, NON_IDENTIFIABLE, UNDETERMINED,
                       ParamStatus, Verdict, classify, draw_theta_ref,
                       evaluate_summary, jacobian_local_test)
from .elimination import NullspaceBasis, left_nullspace, rank_rational
from .errors import (BudgetExceeded, DenominatorVanishes,
                     DenominatorVanishesAtTheta, DimensionMismatch,
                     EmptyNullspace, ExactDivisionError, LpvIdentError,
                     ModelError, ModelSyntaxError, NoParameterDependence,
                     NotAffineInParameters, OrderTooLargeForBudget,
                     StateInMatrixEntry, StateNotEliminated,
                     UnboundIndeterminate, UnknownSymbol)
from .expr import Expression, clear_denominators, dot, expr_text
from .groebner import (GPoly, GroebnerBasis, groebner_basis, reduce_gpoly,
                       s_polynomial, univariate_members)
from .indets import Indeterminate, Kind, Role, parameter, ref_parameter, signal
from .iop import ExhaustiveSummary, IopSet, extract_summary, form_iop
from .model import LpvModel, ParseDiagnostic, parse_model, print_model
from .poly import (Polynomial, collect, exact_div, poly_gcd, poly_lcm,
                   poly_text)
from .stacking import StackedSystem, build_stack
from .verify import (BacksubReport, TrajectoryReport, backsubstitute_check,
                     discrete_trajectory_check, output_closure,
                     stack_substitution_check)

__version__ = "0.1.0"

__all__ = [
    "BacksubReport", "BudgetExceeded", "DenominatorVanishes",
    "DenominatorVanishesAtTheta", "DimensionMismatch", "EmptyNullspace",
    "ExactDivisionError", "ExhaustiveSummary", "Expression", "GLOBAL", "GPoly",
    "GroebnerBasis", "Indeterminate", "IopSet", "Kind", "LOCAL",
    "LpvIdentError", "LpvModel", "ModelError", "ModelSyntaxError",
    "NON_IDENTIFIABLE", "NoParameterDependence",
    "NotAffineInParameters", "NullspaceBasis", "OrderTooLargeForBudget",
    "ParamStatus", "ParseDiagnostic", "Polynomial", "Role", "StackedSystem",
    "StateInMatrixEntry", "StateNotEliminated", "TrajectoryReport",
    "UNDETERMINED", "UnboundIndeterminate", "UnknownSymbol", "Verdict",
    "backsubstitute_check", "build_stack", "classify",
    "clear_denominators", "collect", "discrete_trajectory_check", "dot",
    "draw_theta_ref", "evaluate_summary", "exact_div", "expr_text",
    "extract_summary", "form_iop", "groebner_basis", "jacobian_local_test",
    "left_nullspace", "output_closure",
    "parameter", "parse_model", "poly_gcd", "poly_lcm", "poly_text",
    "print_model", "rank_rational", "reduce_gpoly", "ref_parameter",
    "s_polynomial",
    "signal", "stack_substitution_check", "univariate_members",
]
