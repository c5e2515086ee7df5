"""Input-output-parameter equations and the exhaustive summary.

Multiplying the stacked relation by a left null-space row of O eliminates
the state: psi = omega . (Y0 + G U) = 0 on every trajectory.  Each psi is
cleared to a primitive polynomial.  The exhaustive summary collects, per
equation, the ratios of signal-monomial coefficients to one distinguished
normalizer coefficient, chosen in `extract_summary`: the coefficient of the
highest-ranked signal monomial under (max output derivative/shift order,
total degree, canonical order).  Ratios that still depend on the parameters
form the summary.  An element is built once, as the quotient of two
primitive parts with positive leading coefficients, the coefficient's over
the normalizer's; by Gauss's lemma the reduced quotient keeps primitive
numerator and denominator, so elements equal up to scale collapse to one.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import (EmptyNullspace, NoParameterDependence, StateNotEliminated)
from .indets import Kind, Role
from .expr import Expression, dot
from .poly import Monomial, Polynomial, collect, mono_key

from .stacking import StackedSystem


@dataclass
class IopSet:
    equations: list       # list of Polynomial in signals and parameters
    order: int            # stack order w
    discrete: bool = False

    def outputs_in(self, idx: int) -> set:
        """Base names of outputs appearing in equation idx."""
        return {v.base for v in self.equations[idx].indeterminates()
                if v.kind is Kind.SIGNAL and v.role is Role.OUTPUT}


@dataclass
class ExhaustiveSummary:
    elements: list        # list of Expression in parameters only


def _signal_vars(p: Polynomial) -> set:
    return {v for v in p.indeterminates() if v.kind is Kind.SIGNAL}


def _monomial_rank(m: Monomial) -> tuple:
    """Rank key for choosing the normalizer monomial (max wins)."""
    out_order = max((v.order for v, _ in m
                     if v.kind is Kind.SIGNAL and v.role is Role.OUTPUT), default=-1)
    return (out_order, mono_key(m))


def _ranked_groups(psi: Polynomial) -> list:
    """psi's (signal monomial, coefficient) groups, highest ranked first.

    The first group's coefficient is the equation's normalizer.
    """
    groups = collect(psi, _signal_vars(psi))
    return sorted(groups.items(), key=lambda t: _monomial_rank(t[0]),
                  reverse=True)


def form_iop(stack: StackedSystem, nullspace, discrete=None) -> IopSet:
    """Contract null-space rows with the known side of the stacked system.

    The equations take the stack's time domain; a given discrete must match.
    """
    if discrete is not None and discrete != stack.discrete:
        raise ValueError("discrete disagrees with the stack's time domain")
    if not nullspace.rows:
        raise EmptyNullspace(
            f"stacked matrix at order {stack.order} has no left null-space")
    known = stack.known_side()
    equations = []
    for om in nullspace.rows:
        acc = dot(om, known)
        if acc.is_zero():
            continue
        # eliminate scale: clear the denominator entirely
        psi = acc.num.primitive()
        bad = {v for v in psi.indeterminates()
               if v.kind is Kind.SIGNAL and v.role is Role.STATE}
        if bad:
            names = ", ".join(sorted(v.display() for v in bad))
            raise StateNotEliminated(f"states remain in equation: {names}")
        if psi.is_constant():
            continue  # vacuous constant relation
        equations.append(psi)
    if not equations:
        raise EmptyNullspace("all candidate equations were identically zero")
    return IopSet(equations, stack.order, stack.discrete)


def extract_summary(iop: IopSet) -> ExhaustiveSummary:
    """Pool normalized coefficient ratios across equations, deduplicated."""
    elements = []
    seen = set()
    for psi in iop.equations:
        groups = _ranked_groups(psi)
        norm = groups[0][1].primitive()
        for _, coeff in groups:
            element = Expression(coeff.primitive(), norm)
            # a constant ratio carries no parameter information
            if element.is_constant() or element in seen:
                continue
            seen.add(element)
            elements.append(element)
    if not elements:
        raise NoParameterDependence(
            "no summary element depends on the parameters")
    return ExhaustiveSummary(elements)
