"""Exception types raised across the pipeline."""
from __future__ import annotations


class LpvIdentError(Exception):
    """Base class for all package errors."""


# --- symbolic core ---

class DenominatorVanishes(LpvIdentError):
    """A substitution or evaluation produced a zero denominator."""


class ZeroPolynomialError(LpvIdentError):
    """An operation that needs a nonzero polynomial received zero."""


class ExactDivisionError(LpvIdentError):
    """Internal: an exact polynomial division left a remainder."""


class UnboundIndeterminate(LpvIdentError):
    """evaluate() met an indeterminate with no binding."""


# --- model frontend ---

class ModelError(LpvIdentError):
    """Base for model-text problems; carries a located diagnostic."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{message} (line {line}, col {col})" if line else message)
        self.message = message
        self.line = line
        self.col = col


class ModelSyntaxError(ModelError):
    """Input text falls outside the model grammar."""


class UnknownSymbol(ModelError):
    """A matrix entry references an undeclared name."""


class DimensionMismatch(ModelError):
    """Matrix shape disagrees with the declared dimensions."""


class StateInMatrixEntry(ModelError):
    """A state name appears inside a coefficient matrix entry."""


class NotAffineInParameters(ModelError):
    """A matrix entry is not affine in the parameters jointly."""


# --- stacking / elimination / iop ---

class OrderTooLargeForBudget(LpvIdentError):
    """Requested stack order exceeds the configured size budget."""


class EmptyNullspace(LpvIdentError):
    """The stacked output matrix has full row rank; no relation exists yet."""


class StateNotEliminated(LpvIdentError):
    """An equation produced by form_iop still contains state indeterminates."""


class NoParameterDependence(LpvIdentError):
    """No summary element depends on any parameter."""


# --- identifiability ---

class BudgetExceeded(LpvIdentError):
    """A Groebner computation hit its pair or degree budget."""


class DenominatorVanishesAtTheta(DenominatorVanishes):
    """A summary element's denominator vanishes at the drawn reference point."""
