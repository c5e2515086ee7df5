"""Stacked derivative (continuous) or shift (discrete) systems.

For order w the stacked relation is  Y0 + G U = O X  over the order-major
blocks X = (x^(0) .. x^(w)) and U = (u^(0) .. u^(w)).  Each row is one of
the model relations

    output:  C x + D u = y          as the row pair (C | 0.., -D | 0..)
    state:   x^(1) - A x = B u      as the row pair (-A | I | 0.., B | 0..)

stepped i times.  A step differentiates or shifts the relation: a shifted
coefficient moves one block right; a differentiated one (product rule)
leaves its derivative on its block and moves itself one block right, which
yields the Leibniz weights.  Output block i is the output relation stepped
i times (i = 0..w), state block i the state relation stepped i times
(i = 0..w-1); each block is stepped once from the block before it.  Output
rows come first, then state rows, so Y0 = (y^(0) .. y^(w), 0 .. 0).
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import OrderTooLargeForBudget
from .expr import E_ZERO, E_ONE, Expression, dot
from .model import LpvModel


@dataclass
class StackedSystem:
    order: int
    discrete: bool   # shift (True) or derivative (False) stack
    O: list          # ((w+1)p + wn) x ((w+1)n) of Expression
    G: list          # ((w+1)p + wn) x ((w+1)m) of Expression
    Y0: list         # known-side symbols: y derivatives then zeros
    X: list          # stacked state indeterminates x^(0..w)
    U: list          # stacked input indeterminates u^(0..w)

    @property
    def rows(self) -> int:
        return len(self.O)

    @property
    def cols(self) -> int:
        return len(self.O[0]) if self.O else 0

    def known_side(self) -> list:
        """Y0 + G U as one Expression per row."""
        us = [Expression.var(u) for u in self.U]
        return [dot([y, *g_row], [E_ONE, *us])
                for y, g_row in zip(self.Y0, self.G)]


def _step(row: list, block: int, discrete: bool) -> list:
    """The derivative or shift of a row of coefficients on blocks of
    `block` columns; the last block of row must be zero."""
    moved = [E_ZERO] * block + row[:len(row) - block]
    if discrete:
        return [e.shift() if e else e for e in moved]
    steps = []
    for e, f in zip(row, moved):
        d = e.differentiate() if e else e
        # most coefficients are zero, and a sum with zero still normalises
        steps.append(d + f if d and f else d or f)
    return steps


def build_stack(model: LpvModel, w: int, size_cap: int = 64) -> StackedSystem:
    """Stack the model equations and their first w derivatives or shifts."""
    if w < 0:
        raise ValueError("order must be nonnegative")
    n, m, discrete = model.n, model.m, model.discrete
    if (w + 1) * n > size_cap:
        raise OrderTooLargeForBudget(
            f"stack width {(w + 1) * n} exceeds size budget {size_cap}")

    def pad(row, block):
        return [*row] + [E_ZERO] * ((w + 1) * block - len(row))

    output = [(pad(c_row, n), pad([-e for e in d_row], m))
              for c_row, d_row in zip(model.C, model.D)]
    state = [(pad([-e for e in a_row] + [E_ZERO] * k + [E_ONE], n),
              pad(b_row, m))
             for k, (a_row, b_row) in enumerate(zip(model.A, model.B))]
    rows = []
    for relations, blocks in ((output, w + 1), (state, w)):
        for i in range(blocks):
            if i:
                relations = [(_step(o, n, discrete), _step(g, m, discrete))
                             for o, g in relations]
            rows += relations

    X = [s.with_order(i) for i in range(w + 1) for s in model.states()]
    U = [s.with_order(i) for i in range(w + 1) for s in model.inputs()]
    Y0 = [Expression.var(s.with_order(i))
          for i in range(w + 1) for s in model.outputs()]
    Y0 += [E_ZERO] * (w * n)
    return StackedSystem(w, discrete, [o for o, _ in rows],
                         [g for _, g in rows], Y0, X, U)
