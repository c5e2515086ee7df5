"""Input-output-parameter equations and the exhaustive summary.

Multiplying the stacked relation by a left null-space row of O eliminates
the state: psi = omega . (Y0 + G U) = 0 on every trajectory.  Each psi is
cleared to a primitive polynomial.  The exhaustive summary collects, per
equation, the ratios of signal-monomial coefficients to one distinguished
normalizer coefficient: the coefficient of the highest-ranked signal
monomial under (max output derivative/shift order, total degree, canonical
order).  Ratios that still depend on the parameters form the summary;
ratios are stored with primitive numerator and denominator, so two elements
equal up to rational scale collapse to one.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import (EmptyNullspace, NoParameterDependence, StateNotEliminated)
from .indets import Kind, Role
from .expr import Expression, collect_expr
from .poly import Monomial, Polynomial, mono_key, normalize_primitive

from .stacking import StackedSystem


@dataclass
class IopSet:
    equations: list       # list of Polynomial in signals and parameters
    order: int            # stack order w
    normalizers: list     # per equation: (signal monomial, Polynomial coeff)
    discrete: bool = False

    def outputs_in(self, idx: int) -> set:
        """Base names of outputs appearing in equation idx."""
        return {v.base for v in self.equations[idx].indeterminates()
                if v.kind is Kind.SIGNAL and v.role is Role.OUTPUT}


@dataclass
class ExhaustiveSummary:
    elements: list        # list of Expression in parameters only
    provenance: list      # per element: (equation index, signal monomial)


def _signal_vars(p: Polynomial) -> set:
    return {v for v in p.indeterminates() if v.kind is Kind.SIGNAL}


def _monomial_rank(m: Monomial) -> tuple:
    """Rank key for choosing the normalizer monomial (max wins)."""
    out_order = max((v.order for v, _ in m
                     if v.kind is Kind.SIGNAL and v.role is Role.OUTPUT), default=-1)
    return (out_order, mono_key(m))


def form_iop(stack: StackedSystem, nullspace, discrete: bool = False) -> IopSet:
    """Contract null-space rows with the known side of the stacked system."""
    if not nullspace.rows:
        raise EmptyNullspace(
            f"stacked matrix at order {stack.order} has no left null-space")
    known = stack.known_side()
    equations = []
    normalizers = []
    state_vars = {x.with_order(0) for x in stack.X}
    for om in nullspace.rows:
        acc = Expression(Polynomial())
        for w, k in zip(om, known):
            if not w.is_zero() and not k.is_zero():
                acc = acc + w * k
        if acc.is_zero():
            continue
        psi = acc.num  # eliminate scale: clear the denominator entirely
        psi, _ = normalize_primitive(psi)
        bad = {v for v in psi.indeterminates()
               if v.kind is Kind.SIGNAL and v.role is Role.STATE}
        if bad:
            names = ", ".join(sorted(v.display() for v in bad))
            raise StateNotEliminated(f"states remain in equation: {names}")
        sigs = _signal_vars(psi)
        params = {v for v in psi.indeterminates() if v.kind is Kind.PARAMETER}
        if not sigs and not params:
            continue  # vacuous constant relation
        groups = sorted(((m, c) for m, c in _collect_signals(psi).items()),
                        key=lambda t: _monomial_rank(t[0]))
        norm_mono, norm_coeff = groups[-1]
        equations.append(psi)
        normalizers.append((norm_mono, norm_coeff))
    if not equations:
        raise EmptyNullspace("all candidate equations were identically zero")
    return IopSet(equations, stack.order, normalizers, discrete)


def _collect_signals(psi: Polynomial) -> dict:
    from .poly import collect
    return collect(psi, _signal_vars(psi))


def extract_summary(iop: IopSet) -> ExhaustiveSummary:
    """Pool normalized coefficient ratios across equations, deduplicated."""
    elements = []
    provenance = []
    seen = set()
    for idx, psi in enumerate(iop.equations):
        groups = _collect_signals(psi)
        _, norm = iop.normalizers[idx]
        norm_e = Expression(norm)
        order = sorted(groups, key=_monomial_rank, reverse=True)
        for m in order:
            ratio = Expression(groups[m]) / norm_e
            if not ratio.indeterminates():
                continue  # constant ratio carries no parameter information
            rep = _canonical_element(ratio)
            if rep in seen:
                continue
            seen.add(rep)
            elements.append(rep)
            provenance.append((idx, m))
    if not elements:
        raise NoParameterDependence(
            "no summary element depends on the parameters")
    return ExhaustiveSummary(elements, provenance)


def _canonical_element(ratio: Expression) -> Expression:
    """Scale-free representative: primitive numerator and denominator."""
    num, _ = normalize_primitive(ratio.num)
    return Expression(num, ratio.den)
