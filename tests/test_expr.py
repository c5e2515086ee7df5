"""Rational functions: field laws, calculus, substitution, denominators."""

import random
from fractions import Fraction

import pytest

from lpvident.errors import DenominatorVanishes, ZeroPolynomialError
from lpvident.expr import (E_ONE, E_ZERO, Expression, clear_denominators,
                           dot, expr_text, substitute_poly)
from lpvident.indets import Role, parameter, signal
from lpvident.poly import ONE, Polynomial, exact_div, poly_gcd

TH = parameter("theta", 1)
TH3 = parameter("theta3", 3)
U = signal("u", Role.INPUT)
UD = U.with_order(1)
Y = signal("y", Role.OUTPUT)
X = signal("x", Role.STATE)

P = Polynomial
E = Expression


def ev(v):
    return E.var(v)


def rand_expr(rng, indets):
    def poly():
        p = P()
        for _ in range(rng.randint(1, 3)):
            term = P.const(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            for v in indets:
                e = rng.randint(0, 1)
                if e:
                    term = term * P.var(v, e)
            p = p + term
        return p

    num = poly()
    den = P()
    while den.is_zero():
        den = poly()
    return E(num, den)


def test_field_laws_on_random_expressions():
    rng = random.Random(23)
    indets = [TH, U, Y]
    for _ in range(25):
        a = rand_expr(rng, indets)
        b = rand_expr(rng, indets)
        c = rand_expr(rng, indets)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a - a == E_ZERO
        if not a.is_zero():
            assert a * a.inverse() == E_ONE
            assert a / a == E_ONE


def test_truth_value_is_nonzero():
    # Expression tests false exactly when zero, as Fraction does
    rng = random.Random(31)
    exprs = [rand_expr(rng, [TH, U]) for _ in range(25)]
    exprs += [a - a for a in exprs[:5]] + [E_ZERO, E_ONE, E(P.const(-2))]
    for e in exprs:
        assert bool(e) == (not e.is_zero())
    assert not E_ZERO and E_ONE


def test_canonical_form_reduced_and_positive_denominator():
    rng = random.Random(29)
    for _ in range(25):
        e = rand_expr(rng, [TH, U])
        if e.is_zero():
            assert e.den == P.const(1)
            continue
        # numerator and denominator share no factor
        g = poly_gcd(e.num, e.den)
        assert g.is_constant()
        # denominator content is normalized positive
        assert e.den.content() > 0


def test_same_value_same_representation():
    a = E(P.var(U) * P.var(Y), P.var(U, 2))            # y*u / u^2
    b = E(P.var(Y), P.var(U))
    assert a == b and a.num == b.num and a.den == b.den


def _gcd_content_form(num, den):
    """(num, den) by the general route: divide out the gcd, then the
    content of the denominator."""
    if num.is_zero():
        return num, P.const(1)
    g = poly_gcd(num, den)
    num, den = exact_div(num, g), exact_div(den, g)
    dc = den.content()
    return num.scale(1 / dc), den.scale(1 / dc)


@pytest.mark.parametrize("c", [1, 2, Fraction(-3, 2)])
def test_constant_denominator_divides_the_numerator(c):
    rng = random.Random(37)
    polys = [rand_expr(rng, [TH, U, Y]).num for _ in range(10)] + [P()]
    for p in polys:
        e = E(p, P.const(c))
        assert e.den == ONE
        assert (e.num, e.den) == (E(p.scale(1 / Fraction(c))).num, ONE)
        assert (e.num, e.den) == _gcd_content_form(p, P.const(c))
    assert E(P(), P.const(c)) == E_ZERO


def test_inverse_and_pow():
    e = ev(U) / (ev(Y) + 1)
    assert e ** -2 == (e.inverse()) ** 2
    assert e ** 0 == E_ONE
    assert e ** 3 == e * e * e
    with pytest.raises(ZeroPolynomialError):
        E_ZERO.inverse()


def test_differentiate_quotient_rule():
    rng = random.Random(31)
    for _ in range(15):
        a = rand_expr(rng, [TH, U, Y])
        b = rand_expr(rng, [TH, U, Y])
        if b.is_zero():
            continue
        lhs = (a / b).differentiate()
        rhs = (a.differentiate() * b - a * b.differentiate()) / (b * b)
        assert lhs == rhs


def test_differentiate_parameter_is_zero():
    assert ev(TH).differentiate() == E_ZERO
    assert ev(U).differentiate() == ev(UD)


def test_shift_homomorphism_on_quotients():
    e = (ev(TH) * ev(Y)) / ev(U)
    s = e.shift()
    assert s == (ev(TH) * ev(Y.with_order(1))) / ev(U.with_order(1))
    assert (e * e).shift() == s * s


def test_substitute_scalar():
    e = ev(TH) * ev(Y)
    out = e.substitute({TH: E(P.const(3))})
    assert out == ev(Y) * 3


def test_substitute_back_substitution_to_zero():
    # y := x, y' := theta*x collapses y' - theta*y
    e = ev(Y.with_order(1)) - ev(TH) * ev(Y)
    out = e.substitute({Y: ev(X), Y.with_order(1): ev(TH) * ev(X)})
    assert out == E_ZERO


def test_substitute_vanishing_denominator():
    e = E_ONE / ev(U)
    with pytest.raises(DenominatorVanishes):
        e.substitute({U: E_ZERO})


def test_substitute_rejects_recursive_bindings():
    e = ev(U) + ev(Y)
    with pytest.raises(ValueError):
        e.substitute({U: ev(U) + 1})


def test_substitute_reads_only_its_own_bindings():
    e = ev(TH) * ev(Y)
    # X does not occur in e, so its binding is ignored, even though its
    # value mentions the bound Y
    assert e.substitute({Y: ev(U), X: ev(Y) + 1}) == ev(TH) * ev(U)
    assert e.substitute({X: ev(Y) + 1}) is e
    # a value that is used must not mention a bound indeterminate
    with pytest.raises(ValueError):
        e.substitute({Y: ev(X), X: ev(U)})


def test_evaluate_worked_example():
    e = (ev(UD) - ev(TH3) * ev(U)) / ev(U)
    val = e.evaluate({U: Fraction(1), UD: Fraction(5), TH3: Fraction(2)})
    assert val == 3


def test_evaluate_vanishing_denominator():
    with pytest.raises(DenominatorVanishes):
        (E_ONE / ev(U)).evaluate({U: Fraction(0)})


def test_substitute_poly_produces_expression():
    p = P.var(Y) - P.var(TH) * P.var(X)
    out = substitute_poly(p, {Y: ev(TH) * ev(X)})
    assert out == E_ZERO
    out2 = substitute_poly(P.var(Y, 2), {Y: E_ONE / ev(U)})
    assert out2 == E_ONE / (ev(U) * ev(U))


def _substitute_term_by_term(p, bindings):
    """Oracle: one Expression per factor, the terms added one at a time."""
    out = E_ZERO
    for m, c in p.terms.items():
        term = E(P.const(c))
        for v, e in m:
            factor = bindings[v] ** e if v in bindings else E(P.var(v, e))
            term = term * factor
        out = out + term
    return out


YD = Y.with_order(1)


def test_substitute_poly_matches_term_by_term_oracle():
    rng = random.Random(41)
    d = P.var(U) - 1
    dens = [P.const(1), d, d * d, d * (P.var(TH) + 2), P.var(U)]
    bound = [Y, YD, X]

    def rand_poly(degrees):
        p = P()
        for _ in range(rng.randint(1, 3)):
            term = P.const(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            for v, top in degrees.items():
                e = rng.randint(0, top)
                if e:
                    term = term * P.var(v, e)
            p = p + term
        return p

    for _ in range(40):
        p = rand_poly({TH: 1, U: 1, Y: 2, YD: 2, X: 2})
        bindings = {v: E(rand_poly({TH: 1, U: 1}), rng.choice(dens))
                    for v in bound if rng.random() < 0.8}
        got = substitute_poly(p, bindings)
        want = _substitute_term_by_term(p, bindings)
        assert (got.num, got.den) == (want.num, want.den)


@pytest.mark.parametrize("p,bindings,want", [
    # bindings that share a denominator
    (P.var(Y) + P.var(YD), {Y: ev(TH) / (ev(U) - 1), YD: E_ONE / (ev(U) - 1)},
     (ev(TH) + 1) / (ev(U) - 1)),
    # one denominator divides the other's
    (P.var(Y) * P.var(YD), {Y: ev(TH) / ev(U), YD: ev(X) / (ev(U) * ev(U))},
     ev(TH) * ev(X) / (ev(U) ** 3)),
    (P.var(Y, 2) + P.var(YD), {Y: E_ONE / ev(U), YD: E_ONE / (ev(U) * ev(U))},
     E(P.const(2)) / (ev(U) * ev(U))),
    # the final gcd is nontrivial: u divides the numerator u
    (P.var(U) * P.var(Y, 2), {Y: E_ONE / ev(U)}, E_ONE / ev(U)),
    (P.var(Y) * P.var(TH) + P.var(YD),
     {Y: ev(U) / (ev(U) + 1), YD: ev(U) / (ev(U) + 1)},
     ev(U) * (ev(TH) + 1) / (ev(U) + 1)),
    # the sum cancels to zero
    (P.var(U) * P.var(Y) - 1, {Y: E_ONE / ev(U)}, E_ZERO),
    (P.var(Y, 2) - P.var(YD) * P.var(TH),
     {Y: ev(TH) / (ev(U) - 1), YD: ev(TH) / ((ev(U) - 1) * (ev(U) - 1))},
     E_ZERO),
])
def test_substitute_poly_worked_cases(p, bindings, want):
    got = substitute_poly(p, bindings)
    assert (got.num, got.den) == (want.num, want.den)
    assert got == _substitute_term_by_term(p, bindings)


def test_substitute_fractional_binding_vanishing_denominator():
    e = E_ONE / (ev(Y) * ev(U) - 1)
    with pytest.raises(DenominatorVanishes):
        e.substitute({Y: E_ONE / ev(U)})
    with pytest.raises(ValueError):
        e.substitute({Y: E_ONE / ev(Y)})


def test_clear_denominators_common_multiple():
    exprs = [ev(Y) / ev(U), ev(TH) / (ev(U) * ev(U)), ev(X) + 0]
    polys, den = clear_denominators(exprs)
    assert len(polys) == 3
    for p, e in zip(polys, exprs):
        # p / den == e exactly
        assert E(p, den) == e
    # den is the least common multiple u^2 up to a unit
    assert exact_div(den, P.var(U, 2)).is_constant()


def _dot_incremental(coeffs, values):
    """Oracle: the products added one at a time."""
    out = E_ZERO
    for a, b in zip(coeffs, values):
        out = out + a * b
    return out


def test_dot_matches_incremental_oracle():
    rng = random.Random(17)
    d = P.var(U) - 1
    # shared denominators, and denominators that divide one another
    dens = [P.const(1), d, d * d, d * (P.var(TH) + 2), P.var(U)]

    def rand_entry(indets):
        if rng.random() < 0.2:
            return E_ZERO
        p = P()
        for _ in range(rng.randint(1, 3)):
            term = P.const(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            for v in indets:
                if rng.random() < 0.5:
                    term = term * P.var(v)
            p = p + term
        return E(p, rng.choice(dens))

    for _ in range(60):
        k = rng.randint(1, 5)
        coeffs = [rand_entry([TH, U]) for _ in range(k)]
        values = [rand_entry([Y, X]) for _ in range(k)]
        got = dot(coeffs, values)
        want = _dot_incremental(coeffs, values)
        assert (got.num, got.den) == (want.num, want.den)


@pytest.mark.parametrize("coeffs,values,want", [
    # shared denominator
    ([ev(TH) / (ev(U) - 1), E_ONE / (ev(U) - 1)], [ev(Y), ev(X)],
     (ev(TH) * ev(Y) + ev(X)) / (ev(U) - 1)),
    # one denominator divides the other
    ([E_ONE / ev(U), E_ONE / (ev(U) * ev(U))], [ev(Y), ev(X)],
     (ev(U) * ev(Y) + ev(X)) / (ev(U) * ev(U))),
    # the products cancel to zero
    ([ev(TH) / (ev(U) - 1), -ev(TH)], [ev(Y), ev(Y) / (ev(U) - 1)], E_ZERO),
    ([E_ONE, E_ONE, -E_ONE], [ev(Y), ev(X), ev(Y) + ev(X)], E_ZERO),
    # all-zero and empty input
    ([E_ZERO, ev(TH)], [ev(Y), E_ZERO], E_ZERO),
    ([], [], E_ZERO),
])
def test_dot_worked_cases(coeffs, values, want):
    got = dot(coeffs, values)
    assert (got.num, got.den) == (want.num, want.den)
    assert got == _dot_incremental(coeffs, values)


def test_expr_text():
    e = (ev(TH) * ev(Y)) / (ev(U) - 1)
    assert expr_text(e) == "(theta*y) / (u - 1)"
    assert expr_text(ev(TH) + 2) == "theta + 2"
