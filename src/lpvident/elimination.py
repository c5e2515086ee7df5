"""Exact left null-space and rank over the rational-function field.

Forward elimination is fraction-free (Bareiss): every intermediate entry is
a polynomial, divisions are exact by the previous pivot, and pivot zero
tests are canonical-form tests, never numeric.  An update skips an entry
that is zero and would only gain a product with a zero factor; stacked
matrices are mostly zero.
Rows with rational-function entries are first scaled polynomial by their
denominator lcm; the scale is restored on the computed null-space
vectors.  Back-substitution stays polynomial too: the free entry is set to
the last pivot d, the rank-r minor of the pivot columns, so by Cramer's rule
every other entry is a minor and each division by a pivot is exact.
Returned basis rows are divided by their polynomial gcd (folded from the
entry with the fewest terms up) and made `poly.primitive_parts`: integer,
content-free, first nonzero entry with a positive leading coefficient,
which pins a one-dimensional null-space row uniquely.
The basis is thus an invariant of the matrix, and the pivot rule only
affects cost: whatever rows the pivots come from, the free columns of M^T
are those that earlier columns span, and each row is the one such kernel
vector that is nonzero in a single free column.
A matrix with no more rows than columns is first evaluated at one fixed
rational point: full row rank there makes some maximal minor a nonzero
rational function (a nonzero value proves it nonzero; Schwartz, J. ACM 27,
1980), so the null space is empty and the elimination is skipped.  A lower
rank or a denominator that vanishes at the point proves nothing; the
elimination then runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DenominatorVanishes
from .expr import Expression, clear_denominators
from .poly import (ONE, ZERO, Polynomial, add_terms_into, exact_div, poly_gcd,
                   primitive_parts)


@dataclass
class NullspaceBasis:
    rows: list           # list of rows of Expression (polynomial-valued)
    rank: int            # rank of the input matrix
    dimension: int       # number of basis rows


def _pivot_weight(p: Polynomial) -> tuple:
    """Pivot cost, lower degree and then fewer terms first, which keeps the
    fraction-free entries small; ties go to the first candidate row."""
    return (p.total_degree(), len(p.terms))


def _bareiss_echelon(M: list):
    """Fraction-free row echelon on a polynomial matrix, in place.

    Returns the pivots, a list of (row, col) in elimination order; the
    rank is their number.  Column order is left to right; within a column
    the pivot row minimizes `_pivot_weight`.
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    prev = ONE
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        cand = [i for i in range(r, rows) if not M[i][c].is_zero()]
        if not cand:
            continue
        best = min(cand, key=lambda i: _pivot_weight(M[i][c]))
        if best != r:
            M[r], M[best] = M[best], M[r]
        piv = M[r][c]
        prow = M[r]
        divide = prev != ONE
        for i in range(r + 1, rows):
            row = M[i]
            a = row[c]
            for j in range(c + 1, cols):
                x = row[j]
                # an entry that is zero and gains a zero product stays zero
                if x.is_zero() and (a.is_zero() or prow[j].is_zero()):
                    continue
                num = piv * x - a * prow[j]
                row[j] = exact_div(num, prev) if divide else num
            row[c] = ZERO
        pivots.append((r, c))
        prev = piv
        r += 1
    return pivots


def rank_rational(rows: list) -> int:
    """Exact rank of a rational matrix, over the integers.

    Entries are read as Fractions (int, Fraction, float or str, all exact).
    Each row is cleared to integers and divided by its content (a row scale
    keeps the rank).  Elimination is fraction-free: row i becomes
    (p/g) row_i - (a/g) pivot row, g = gcd(p, a), divided by its content.
    That is the primitive integer row along the row that elimination over
    Q would hold, never longer than Bareiss's row, an integer multiple of
    it; on structured rows such as powers of one signal, Bareiss's rows
    carry large common factors that this keeps out.
    """
    M = []
    for row in rows:
        row = list(map(Fraction, row))
        d = lcm(*(x.denominator for x in row))
        M.append(_primitive([x.numerator * (d // x.denominator)
                             for x in row]))
    nr = len(M)
    nc = len(M[0]) if nr else 0
    rank = 0
    for c in range(nc):
        piv = next((i for i in range(rank, nr) if M[i][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        pr = M[rank]
        for i in range(rank + 1, nr):
            row = M[i]
            if row[c]:
                g = gcd(pr[c], row[c])
                p, a = pr[c] // g, row[c] // g
                row[c + 1:] = _primitive([p * x - a * y for x, y in
                                          zip(row[c + 1:], pr[c + 1:])])
        rank += 1
    return rank


def _primitive(row: list) -> list:
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def left_nullspace(matrix: list) -> NullspaceBasis:
    """Basis of {omega : omega M = 0} for a matrix of Expression entries.

    Computed as the kernel of M^T.  Basis rows are polynomial, content-free
    and sign-normalized; a zero row of M yields the corresponding unit
    vector.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if nrows <= ncols and _full_row_rank_at_a_point(matrix):
        return NullspaceBasis([], nrows, 0)
    # scale each row polynomial by its denominator lcm
    rows, row_scales = zip(*map(clear_denominators, matrix))
    # transpose: unknowns are the nrows components of omega
    T = [list(col) for col in zip(*rows)]
    pivots = _bareiss_echelon(T)
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(nrows) if c not in pivot_cols]

    d = T[pivots[-1][0]][pivots[-1][1]] if pivots else ONE
    basis = []
    for f in free_cols:
        omega = [ZERO] * nrows
        omega[f] = d
        for (r, c) in reversed(pivots):
            acc: dict = {}
            for j in range(c + 1, nrows):
                if not T[r][j].is_zero() and not omega[j].is_zero():
                    add_terms_into(acc, (T[r][j] * omega[j]).terms)
            omega[c] = exact_div(-Polynomial._of(acc), T[r][c])
        # restore the row scaling of the original matrix
        basis.append(_normalize_row(
            [w * s for w, s in zip(omega, row_scales)]))
    return NullspaceBasis(basis, len(pivots), len(basis))


def _full_row_rank_at_a_point(matrix: list) -> bool:
    """True when M, evaluated at one fixed rational point, has full row
    rank.

    Then some maximal minor is nonzero at a point, so it is a nonzero
    rational function: M has full row rank and its left null space is
    empty.  False proves nothing (the point may be a root of every maximal
    minor, or of an entry denominator); the caller then eliminates.  The
    point binds the matrix's indeterminates, in their canonical order, to
    the successive values of the Park-Miller generator (CACM 31, 1988), so
    it draws no random number and is the same in every run.
    """
    indets = set()
    for row in matrix:
        for e in row:
            indets |= e.indeterminates()
    point = {}
    x = 1
    for v in sorted(indets, key=lambda v: v.sort_key):
        x = x * 48271 % 2147483647
        point[v] = x
    try:
        values = [[e.evaluate(point) if e else 0 for e in row]
                  for row in matrix]
    except DenominatorVanishes:
        return False
    return rank_rational(values) == len(matrix)


def _normalize_row(row: list) -> list:
    content = poly_gcd(*row)
    if not content.is_zero() and content != ONE:
        row = [exact_div(p, content) for p in row]
    return [Expression(p) for p in primitive_parts(row)]
