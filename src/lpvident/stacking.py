"""Stacked derivative (continuous) or shift (discrete) systems.

For order w the stacked relation is  Y0 + G U = O X  with

    O = [ CC ; AA ]        ((w+1)p + w n rows, (w+1)n columns)
    G = [ -DD ; BB ]       (same row count, (w+1)m columns)
    Y0 = (y^(0) .. y^(w), 0 .. 0)

Continuous time follows the Leibniz rule: block (i, j) of CC is
binom(i, j) C^(i-j) for j <= i (derivatives of the matrix entries), and AA
carries -binom(i, j) A^(i-j) plus the identity on block column i+1.
Discrete time replaces derivatives by shifts and has no binomial weights:
CC and DD are block-diagonal in C_{k+i}, D_{k+i}, and AA is block
bidiagonal (-A_{k+i}, I).  Output rows come first, then state rows.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import OrderTooLargeForBudget
from .expr import E_ZERO, E_ONE, Expression, dot
from .model import LpvModel
from .poly import Polynomial


def binom_schedule(w: int) -> list:
    """Rows 0..w of Pascal's triangle."""
    rows = [[1]]
    for _ in range(w):
        prev = rows[-1]
        rows.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return rows


@dataclass
class StackedSystem:
    order: int
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


def _mat_map(mat, f):
    return [[f(e) for e in row] for row in mat]


def _zeros(rows, cols):
    return [[E_ZERO for _ in range(cols)] for _ in range(rows)]


def build_stack(model: LpvModel, w: int, size_cap: int = 64) -> StackedSystem:
    """Stack the model equations and their first w derivatives or shifts."""
    if w < 0:
        raise ValueError("order must be nonnegative")
    n, m, p = model.n, model.m, model.p
    if (w + 1) * n > size_cap:
        raise OrderTooLargeForBudget(
            f"stack width {(w + 1) * n} exceeds size budget {size_cap}")

    # matrix sequences: index i holds the i-th derivative / shift
    if model.discrete:
        step = lambda mat: _mat_map(mat, lambda e: e.shift())
    else:
        step = lambda mat: _mat_map(mat, lambda e: e.differentiate())
    seqs = {}
    for key, mat in (("A", model.A), ("B", model.B), ("C", model.C), ("D", model.D)):
        seq = [_mat_map(mat, lambda e: e)]
        for _ in range(w):
            seq.append(step(seq[-1]))
        seqs[key] = seq

    pas = binom_schedule(w)
    out_rows = (w + 1) * p
    st_rows = w * n
    O = _zeros(out_rows + st_rows, (w + 1) * n)
    G = _zeros(out_rows + st_rows, (w + 1) * m)

    def put(dst, r0, c0, block, scale=1, negate=False):
        for i, row in enumerate(block):
            for j, e in enumerate(row):
                if e.is_zero():
                    continue
                v = e * scale
                dst[r0 + i][c0 + j] = -v if negate else v

    for i in range(w + 1):
        if model.discrete:
            put(O, i * p, i * n, seqs["C"][i])
            put(G, i * p, i * m, seqs["D"][i], negate=True)
        else:
            for j in range(i + 1):
                put(O, i * p, j * n, seqs["C"][i - j], scale=pas[i][j])
                put(G, i * p, j * m, seqs["D"][i - j], scale=pas[i][j], negate=True)
    for i in range(w):
        r0 = out_rows + i * n
        if model.discrete:
            put(O, r0, i * n, seqs["A"][i], negate=True)
            put(G, r0, i * m, seqs["B"][i])
        else:
            for j in range(i + 1):
                put(O, r0, j * n, seqs["A"][i - j], scale=pas[i][j], negate=True)
                put(G, r0, j * m, seqs["B"][i - j], scale=pas[i][j])
        for k in range(n):
            O[r0 + k][(i + 1) * n + k] = E_ONE

    X = [s.with_order(i) for i in range(w + 1) for s in model.states()]
    U = [s.with_order(i) for i in range(w + 1) for s in model.inputs()]
    Y0 = [Expression(Polynomial.var(s.with_order(i)))
          for i in range(w + 1) for s in model.outputs()]
    Y0 += [E_ZERO] * st_rows
    return StackedSystem(w, O, G, Y0, X, U)
