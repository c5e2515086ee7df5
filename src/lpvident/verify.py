"""Independent checks on pipeline results.

Back-substitution rebuilds each output derivative or shift directly from
the state equations and substitutes it into the I-O-P equations; the result
must cancel to exactly zero, which certifies state elimination without
reusing any null-space computation.  The closure follows one rule in both
time domains: at order j the relations y = C x + D u and x^(1) = A x + B u,
differentiated or shifted j times, get the closure built so far
substituted (x^(1..j) and the outputs y^(0..j) that A and B may hold),
which gives y^(j) and x^(j+1).  The stack check substitutes the same
closure into one residual Y0 + G U - O X per row of the stacked system:
one order-w closure, built once per verifier run, serves both symbolic
checks, since the order-w closure holds every y^(j) and x^(j) with j <= w.
For discrete models a second, purely numeric oracle evaluates each
equation on independent (w+1)-step exact rational trajectory segments from
fresh random states.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DenominatorVanishes
from .expr import E_ONE, Expression, dot
from .iop import IopSet
from .model import LpvModel
from .stacking import StackedSystem


def _affine(M, N, xs: list, us: list) -> list:
    """Rows of M xs + N us over expressions."""
    return [dot(m_row + n_row, xs + us) for m_row, n_row in zip(M, N)]


def output_closure(model: LpvModel, max_order: int) -> dict:
    """Map output indeterminates y^(j), j <= max_order, and state
    indeterminates x^(j), 1 <= j <= max_order, to expressions in states
    (order 0), inputs and scheduling signals only."""
    step = Expression.shift if model.discrete else Expression.differentiate
    states, outputs = model.states(), model.outputs()
    xs = [Expression.var(s) for s in states]
    us = [Expression.var(u) for u in model.inputs()]
    # y = C x + D u and x^(1) = A x + B u, stepped j times at order j
    y_rel = _affine(model.C, model.D, xs, us)
    x_rel = _affine(model.A, model.B, xs, us)
    closure: dict = {}
    for j in range(max_order + 1):
        ys = [e.substitute(closure) for e in y_rel]
        closure.update(zip((y.with_order(j) for y in outputs), ys))
        if j == max_order:
            break
        x_next = [e.substitute(closure) for e in x_rel]
        closure.update(zip((s.with_order(j + 1) for s in states), x_next))
        y_rel = [step(e) for e in y_rel]
        x_rel = [step(e) for e in x_rel]
    return closure


@dataclass
class BacksubReport:
    ok: bool
    residuals: list   # Expression per equation


def backsubstitute_check(closure: dict, iop: IopSet) -> BacksubReport:
    """Substitute model-implied output expressions into each equation.

    closure is `output_closure(model, iop.order)`: the equations hold
    outputs of order at most w, and the order-w closure maps every one.
    """
    residuals = [Expression(psi).substitute(closure) for psi in iop.equations]
    return BacksubReport(all(r.is_zero() for r in residuals), residuals)


def stack_substitution_check(closure: dict, stack: StackedSystem) -> bool:
    """Row-wise: Y0 + G U - O X vanishes under the model dynamics.

    One `dot` per row gives its residual.  The stack at order w holds
    y^(0..w) and x^(0..w), with A and B shifted or differentiated at most
    w - 1 times, so closure is `output_closure(model, stack.order)`.
    """
    values = [E_ONE, *(Expression.var(u) for u in stack.U),
              *(-Expression.var(x) for x in stack.X)]
    return all(dot([y, *g_row, *o_row], values).substitute(closure).is_zero()
               for y, g_row, o_row in zip(stack.Y0, stack.G, stack.O))


@dataclass
class TrajectoryReport:
    ok: bool
    windows: int
    max_residual: Fraction


def discrete_trajectory_check(model: LpvModel, iop: IopSet, theta: dict,
                              steps: int = 8, seed: int = 0) -> TrajectoryReport:
    """Evaluate each equation on steps - w windows; residuals must be
    exactly zero.  steps must exceed w, so at least one window runs.

    Each window is its own exact rational trajectory segment of w + 1 steps
    from a fresh random state, inputs and scheduling values.  Every segment
    is a trajectory of the time-invariant model, so the check stays exact,
    while the bit lengths of output-scheduled maps, which double at every
    step, stay bounded.  A segment that meets a vanishing denominator is
    redrawn on its own.
    """
    if not model.discrete:
        raise ValueError("trajectory check applies to discrete models")
    if steps <= iop.order:
        raise ValueError(f"{steps} steps leave no window at order {iop.order}")
    rng = random.Random(seed)
    matrices = [_at_theta(M, theta)
                for M in (model.A, model.B, model.C, model.D)]
    windows = 0
    worst = Fraction(0)
    for _ in range(steps - iop.order):
        for _attempt in range(25):
            try:
                bind = _segment(model, matrices, theta, iop.order + 1, rng)
                break
            except DenominatorVanishes:
                continue
        else:
            raise DenominatorVanishes(
                "could not draw a trajectory segment off singularities")
        for psi in iop.equations:
            worst = max(worst, abs(psi.evaluate(bind)))
        windows += 1
    return TrajectoryReport(worst == 0, windows, worst)


def _at_theta(M, theta: dict) -> list:
    """M with each entry that holds only parameters evaluated at theta once.

    An entry that holds a signal, or whose denominator vanishes at theta,
    stays an Expression and is evaluated at every step, where a vanishing
    denominator redraws the segment.
    """
    def value(e):
        if e.indeterminates().issubset(theta):
            try:
                return e.evaluate(theta)
            except DenominatorVanishes:
                pass
        return e
    return [[value(e) for e in row] for row in M]


def _segment(model: LpvModel, matrices: list, theta: dict, length: int,
             rng) -> dict:
    """Bind theta plus the outputs, inputs and scheduling signals of an exact
    trajectory of `length` steps, step k at shift order k.

    matrices holds A, B, C and D as `_at_theta` leaves them.
    """
    def draw():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    A, B, C, D = matrices
    states, outs = model.states(), model.outputs()
    ins, scheds = model.inputs(), model.scheduling()
    x = [draw() for _ in states]
    window = dict(theta)
    for k in range(length):
        u = [draw() for _ in ins]
        bind = dict(theta)
        bind.update(zip(ins, u))
        bind.update((s, draw()) for s in scheds)
        bind.update(zip(states, x))
        bind.update(zip(outs, _evaluate_affine(C, D, x, u, bind)))
        window.update((s.with_order(k), bind[s]) for s in outs + ins + scheds)
        if k + 1 < length:
            x = _evaluate_affine(A, B, x, u, bind)
    return window


def _evaluate_affine(M, N, x: list, u: list, bind: dict) -> list:
    """Rows of M x + N u, each nonzero entry on its own: a number as it is,
    an Expression evaluated at bind; a zero entry adds exactly 0 and is
    skipped."""
    return [sum(((e.evaluate(bind) if isinstance(e, Expression) else e) * v
                 for e, v in zip(m_row + n_row, x + u) if e), Fraction(0))
            for m_row, n_row in zip(M, N)]
