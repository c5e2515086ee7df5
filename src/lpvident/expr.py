"""Rational functions: quotients of polynomials in canonical form.

Invariant: gcd(num, den) = 1 and den is primitive with a positive leading
coefficient under the canonical order, so structurally equal expressions
are mathematically equal and vice versa.

Substitution into a polynomial brings every term over one common
denominator (the product of each binding's denominator raised to the
largest exponent of its indeterminate), sums the numerators in one term
dict and normalises once; the canonical form makes the result the same as
adding the substituted terms one by one; `dot` sums products of
expressions the same way.  `Expression.substitute` is the one entry point,
and reads only the bindings of the expression's own indeterminates.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import DenominatorVanishes, ZeroPolynomialError
from .indets import Indeterminate
from .poly import (ONE, ZERO, Polynomial, _coerce, add_terms_into, collect,
                   exact_div, exact_quotient, poly_gcd, poly_lcm, poly_text)


class Expression:
    """num / den with exact rational-function arithmetic."""

    # _indets is filled on the first `indeterminates` call
    __slots__ = ("num", "den", "_indets")

    def __init__(self, num, den=None):
        num = _coerce(num)
        den = ONE if den is None else _coerce(den)
        if den.is_zero():
            raise ZeroPolynomialError("zero denominator")
        if num.is_zero():
            den = ONE
        elif den.is_constant():
            # a constant is a unit, so the form is (num / c, 1); nearly every
            # Expression has one, and this skips poly_gcd and content()
            c = den.constant_value()
            if c != 1:
                num = num.scale(exact_quotient(1, c))
            den = ONE
        else:
            g = poly_gcd(num, den)
            if g != ONE:
                num = exact_div(num, g)
                den = exact_div(den, g)
            dc = den.content()
            if dc != 1:
                inv = exact_quotient(1, dc)
                num = num.scale(inv)
                den = den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Expression is immutable")

    @staticmethod
    def var(v: Indeterminate) -> "Expression":
        return Expression(Polynomial.var(v))

    # --- predicates ---

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == ONE

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self):
        """The value of a constant expression: an int, or a Fraction with a
        denominator above 1."""
        return exact_quotient(self.num.constant_value(),
                              self.den.constant_value())

    def indeterminates(self) -> frozenset:
        """The indeterminates of num and den, computed once per value."""
        try:
            return self._indets
        except AttributeError:
            out = frozenset(self.num.indeterminates()
                            | self.den.indeterminates())
            object.__setattr__(self, "_indets", out)
            return out

    # --- field arithmetic ---

    def __add__(self, other) -> "Expression":
        other = _expr(other)
        return Expression(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "Expression":
        return Expression(-self.num, self.den)

    def __sub__(self, other) -> "Expression":
        return self + (-_expr(other))

    def __rsub__(self, other) -> "Expression":
        return _expr(other) + (-self)

    def __mul__(self, other) -> "Expression":
        other = _expr(other)
        return Expression(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Expression":
        other = _expr(other)
        if other.is_zero():
            raise ZeroPolynomialError("division by zero expression")
        return Expression(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "Expression":
        return _expr(other) / self

    def inverse(self) -> "Expression":
        if self.is_zero():
            raise ZeroPolynomialError("inverse of zero")
        return Expression(self.den, self.num)

    def __pow__(self, n: int) -> "Expression":
        if n < 0:
            return self.inverse() ** (-n)
        return Expression(self.num ** n, self.den ** n)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Polynomial)):
            other = _expr(other)
        if not isinstance(other, Expression):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # --- calculus and shifts ---

    def differentiate(self) -> "Expression":
        if self.is_polynomial():
            return Expression(self.num.differentiate())
        return Expression(
            self.num.differentiate() * self.den - self.num * self.den.differentiate(),
            self.den * self.den)

    def shift(self) -> "Expression":
        return Expression(self.num.shift(), self.den.shift())

    def evaluate(self, bindings: dict) -> Fraction:
        if self.is_polynomial():
            return self.num.evaluate(bindings)
        d = self.den.evaluate(bindings)
        if d == 0:
            raise DenominatorVanishes("denominator vanishes at the given point")
        return self.num.evaluate(bindings) / d

    def substitute(self, bindings: dict) -> "Expression":
        """Simultaneous substitution of indeterminates by expressions.

        Reads only the bindings of self's indeterminates (self comes back
        when none is bound); a value it uses must not mention a bound one.
        """
        used = {v: bindings[v] for v in self.indeterminates() if v in bindings}
        if not used:
            return self
        bound = bindings.keys()
        for val in used.values():
            if not bound.isdisjoint(_expr(val).indeterminates()):
                raise ValueError("substitution values mention bound indeterminates")
        num = substitute_poly(self.num, used)
        if self.den == ONE:
            return num
        den = substitute_poly(self.den, used)
        if den.is_zero():
            raise DenominatorVanishes("denominator vanishes under substitution")
        return num / den

    def __repr__(self) -> str:
        return expr_text(self)


def _expr(x) -> Expression:
    if isinstance(x, Expression):
        return x
    return Expression(_coerce(x))


E_ZERO = Expression(ZERO)
E_ONE = Expression(ONE)


def substitute_poly(p: Polynomial, bindings: dict) -> Expression:
    """Substitute indeterminates by expressions inside a polynomial.

    With v -> num_v / den_v and top_v the largest exponent of v in p, every
    term goes over the one common denominator prod den_v^top_v: its part
    over the bound indeterminates becomes prod num_v^e * den_v^(top_v - e).
    The numerators are summed in one term dict and the quotient is
    normalised once.  A bound indeterminate that p lacks has top_v = 0 and
    changes nothing.
    """
    vals = {v: _expr(val) for v, val in bindings.items()}
    groups = collect(p, set(vals))
    top = dict.fromkeys(vals, 0)
    for m in groups:
        for v, e in m:
            top[v] = max(top[v], e)
    fractional = [v for v, val in vals.items()
                  if top[v] and not val.is_polynomial()]
    powers: dict = {}

    def power(v: Indeterminate, part: str, e: int) -> Polynomial:
        key = (v, part, e)
        if key not in powers:
            powers[key] = getattr(vals[v], part) ** e
        return powers[key]

    acc: dict = {}
    for m, term in groups.items():
        exps = dict(m)
        for v, e in m:
            term = term * power(v, "num", e)
        for v in fractional:
            k = top[v] - exps.get(v, 0)
            if k:
                term = term * power(v, "den", k)
        add_terms_into(acc, term.terms)
    den = ONE
    for v in fractional:
        den = den * power(v, "den", top[v])
    return Expression(Polynomial._of(acc), den)


def clear_denominators(exprs: list) -> tuple:
    """Common-denominator pass: returns (list of Polynomial, common den)."""
    common = ONE
    for e in exprs:
        if e.den != ONE and e.den != common:
            common = poly_lcm(common, e.den)
    return [e.num if e.den == common else e.num * exact_div(common, e.den)
            for e in exprs], common


def dot(coeffs, values) -> Expression:
    """Sum of the products coeffs[i] * values[i].

    The nonzero products go over one common denominator, their numerators
    are summed in one term dict and the quotient is normalised once; the
    canonical form makes the result the same as adding the products one by
    one.
    """
    products = [a * b for a, b in zip(coeffs, values) if a and b]
    nums, den = clear_denominators(products)
    acc: dict = {}
    for p in nums:
        add_terms_into(acc, p.terms)
    return Expression(Polynomial._of(acc), den)


def expr_text(e: Expression, discrete: bool = False) -> str:
    if e.is_polynomial():
        return poly_text(e.num, discrete)
    return f"({poly_text(e.num, discrete)}) / ({poly_text(e.den, discrete)})"
