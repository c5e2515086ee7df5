"""Polynomial ring: arithmetic laws, calculus maps, gcd, canonical forms."""

import random
from fractions import Fraction

import pytest

from lpvident.errors import (ExactDivisionError, UnboundIndeterminate,
                             ZeroPolynomialError)
from lpvident.indets import Role, parameter, ref_parameter, signal
from lpvident.poly import (MonomialOrder, Polynomial, collect, exact_div,
                           mono_key, normalize_primitive, poly_gcd, poly_lcm,
                           poly_text)

TH1 = parameter("theta1", 1)
TH2 = parameter("theta2", 2)
TH3 = parameter("theta3", 3)
U = signal("u", Role.INPUT)
Y = signal("y", Role.OUTPUT)
X2 = signal("x2", Role.STATE)

P = Polynomial


def pv(v, e=1):
    return P.var(v, e)


def rand_poly(rng, indets, max_terms=4, max_deg=2):
    p = P()
    for _ in range(rng.randint(0, max_terms)):
        term = P.const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for v in indets:
            e = rng.randint(0, max_deg)
            if e:
                term = term * pv(v, e)
        p = p + term
    return p


def test_ring_laws_on_random_polynomials():
    rng = random.Random(11)
    indets = [TH1, TH2, U, Y]
    for _ in range(30):
        a = rand_poly(rng, indets)
        b = rand_poly(rng, indets)
        c = rand_poly(rng, indets)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == P()
        assert a * P.const(1) == a
        assert a * P() == P()


def test_pow_matches_repeated_product():
    p = pv(TH1) + pv(U)
    assert p ** 0 == P.const(1)
    assert p ** 3 == p * p * p
    with pytest.raises(ValueError):
        p ** -1


def test_differentiate_single_signal():
    assert pv(U).differentiate() == pv(U.with_order(1))


def test_differentiate_product_rule_example():
    # d/dt(theta2*u*x2) = theta2*u'*x2 + theta2*u*x2'
    p = pv(TH2) * pv(U) * pv(X2)
    expect = (pv(TH2) * pv(U.with_order(1)) * pv(X2)
              + pv(TH2) * pv(U) * pv(X2.with_order(1)))
    assert p.differentiate() == expect


def test_differentiate_twice_bumps_order():
    p = pv(TH2) * pv(U)
    assert p.differentiate().differentiate() == pv(TH2) * pv(U.with_order(2))


def test_differentiate_kills_constants_and_parameters():
    assert P.const(Fraction(5, 3)).differentiate() == P()
    assert pv(TH1).differentiate() == P()


def test_leibniz_on_random_polynomials():
    rng = random.Random(7)
    indets = [TH1, U, Y]
    for _ in range(25):
        a = rand_poly(rng, indets)
        b = rand_poly(rng, indets)
        lhs = (a * b).differentiate()
        assert lhs == a.differentiate() * b + a * b.differentiate()


def test_shift_is_a_ring_homomorphism():
    rng = random.Random(13)
    indets = [TH1, U, Y]
    for _ in range(25):
        a = rand_poly(rng, indets)
        b = rand_poly(rng, indets)
        assert (a * b).shift() == a.shift() * b.shift()
        assert (a + b).shift() == a.shift() + b.shift()


def test_shift_examples():
    assert pv(U).shift() == pv(U.with_order(1))
    p = pv(TH1) * pv(signal("x1", Role.STATE), 2) + pv(U)
    expect = (pv(TH1) * pv(signal("x1", Role.STATE, 1), 2)
              + pv(U.with_order(1)))
    assert p.shift() == expect
    assert pv(Y).shift().shift() == pv(Y.with_order(2))


def _mono(p):
    [(m, c)] = p.terms.items()
    assert c == 1
    return m


def test_collect_two_term_split():
    p = pv(TH1) * pv(U, 2) * pv(Y) - pv(U, 2) * pv(Y.with_order(2))
    groups = collect(p, {U, Y, Y.with_order(2)})
    key_uy = _mono(pv(U, 2) * pv(Y))
    key_uyddot = _mono(pv(U, 2) * pv(Y.with_order(2)))
    assert groups == {key_uy: pv(TH1), key_uyddot: P.const(-1)}


def test_collect_zero_is_empty():
    assert collect(P(), {U}) == {}


def test_collect_coefficients_avoid_collected_vars():
    rng = random.Random(3)
    for _ in range(20):
        p = rand_poly(rng, [TH1, TH2, U, Y])
        groups = collect(p, {U, Y})
        rebuilt = P()
        for mono, coeff in groups.items():
            assert not (coeff.indeterminates() & {U, Y})
            rebuilt = rebuilt + P({mono: Fraction(1)}) * coeff
        assert rebuilt == p


def test_evaluate_exact_and_unbound():
    p = pv(TH2) * pv(TH3)
    assert p.evaluate({TH2: Fraction(2), TH3: Fraction(3)}) == 6
    with pytest.raises(UnboundIndeterminate):
        p.evaluate({TH2: Fraction(2)})


def test_normalize_primitive_golden_values():
    p = P.const(-2) * pv(TH1) + P.const(4)
    prim, content = normalize_primitive(p)
    assert prim == pv(TH1) - P.const(2)
    assert content == Fraction(-2)

    prim, content = normalize_primitive(P.const(6) * pv(U, 2) * pv(Y))
    assert prim == pv(U, 2) * pv(Y)
    assert content == Fraction(6)


def test_normalize_primitive_scale_free_and_idempotent():
    rng = random.Random(5)
    for _ in range(20):
        p = rand_poly(rng, [TH1, U, Y])
        if p.is_zero():
            continue
        c = Fraction(0)
        while c == 0:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        prim, _ = normalize_primitive(p)
        prim_scaled, _ = normalize_primitive(p.scale(c))
        assert prim == prim_scaled
        again, content = normalize_primitive(prim)
        assert again == prim and content == 1


def test_normalize_primitive_rejects_zero():
    with pytest.raises(ZeroPolynomialError):
        normalize_primitive(P())


def test_exact_division():
    rng = random.Random(17)
    for _ in range(15):
        a = rand_poly(rng, [TH1, U])
        b = rand_poly(rng, [TH1, Y])
        if b.is_zero():
            continue
        assert exact_div(a * b, b) == a
    with pytest.raises(ExactDivisionError):
        exact_div(pv(U, 2) + P.const(1), pv(U))


def test_poly_gcd_recovers_common_factor():
    f = pv(U) + pv(TH1)           # shared factor
    a = f * (pv(Y) + P.const(1))
    b = f * (pv(Y, 2) + pv(TH1))
    g = poly_gcd(a, b)
    # defined up to a rational unit; our gcd is primitive with positive lead
    assert exact_div(a, g) is not None
    prim_f, _ = normalize_primitive(f)
    assert g == prim_f


def test_poly_gcd_of_coprime_is_constant():
    g = poly_gcd(pv(U) + P.const(1), pv(Y) + P.const(2))
    assert g.is_constant() and not g.is_zero()


def test_poly_lcm_product_relation():
    a = (pv(U) + P.const(1)) * pv(TH1)
    b = (pv(U) + P.const(1)) * pv(Y)
    lcm = poly_lcm(a, b)
    assert exact_div(lcm, a) is not None
    assert exact_div(lcm, b) is not None
    g = poly_gcd(a, b)
    prim_ab, _ = normalize_primitive(a * b)
    prim_lg, _ = normalize_primitive(lcm * g)
    assert prim_ab == prim_lg


def test_monomial_order_laws():
    # orders act on exponent tuples aligned with the variable sequence
    order = MonomialOrder.lex([TH1, TH2, TH3])
    key = order.key()
    one = (0, 0, 0)
    monos = [(1, 0, 0), (0, 3, 0), (1, 0, 2)]
    for m in monos:
        assert key(one) < key(m)  # 1 is minimal
    # multiplicative: a < b implies a*c < b*c
    a, b, c = (1, 0, 0), (1, 0, 2), (0, 1, 0)
    mul = lambda x, y: tuple(i + j for i, j in zip(x, y))
    assert key(a) < key(b)
    assert key(mul(a, c)) < key(mul(b, c))
    grl = MonomialOrder.degrevlex([TH1, TH2, TH3]).key()
    assert grl((0, 3, 0)) > grl((1, 0, 1))      # degree first
    assert grl((1, 1, 0)) > grl((1, 0, 1))      # revlex tie-break


def test_mono_key_matches_aligned_degrevlex():
    # the canonical order on (indeterminate, exponent) monomials and the
    # degrevlex MonomialOrder on exponent tuples are one order
    variables = sorted(
        [TH1, TH2, TH3, ref_parameter(1), ref_parameter(2), U, U.with_order(1),
         Y, Y.with_order(2), X2, signal("rho", Role.SCHEDULING)],
        key=lambda v: v.sort_key, reverse=True)
    grl = MonomialOrder.degrevlex(variables).key()
    rng = random.Random(7)

    def rand_mono():
        exps = [rng.choice((0, 0, 0, 1, 2, 3)) for _ in variables]
        m = tuple(sorted(((v, e) for v, e in zip(variables, exps) if e),
                         key=lambda p: p[0].sort_key))
        return m, tuple(exps)

    for _ in range(3000):
        (a, ea), (b, eb) = rand_mono(), rand_mono()
        if rng.random() < 0.2:  # equal monomials must give equal keys
            b, eb = a, ea
        want = (grl(ea) > grl(eb)) - (grl(ea) < grl(eb))
        assert (mono_key(a) > mono_key(b)) - (mono_key(a) < mono_key(b)) == want
    assert mono_key(()) < mono_key(((TH1, 1),)) < mono_key(((U, 1),))
    assert mono_key(((TH1, 1), (U, 1))) < mono_key(((U, 2),))  # revlex tie


def test_lex_order_eliminates_leading_variables():
    # with theta1 first, any monomial containing theta1 dominates all
    # theta1-free monomials
    order = MonomialOrder.lex([TH1, TH2])
    key = order.key()
    assert key((0, 5)) < key((1, 0))


def test_poly_text_canonical_forms():
    p = pv(TH2) * pv(TH3) * pv(U, 3) * pv(Y) - pv(U, 2) * pv(Y.with_order(2))
    assert poly_text(p) == "theta2*theta3*u^3*y - u^2*y''"
    k2 = pv(Y.with_order(2)) - pv(TH1) * pv(Y, 2)
    assert poly_text(k2, discrete=True) == "-theta1*y[k]^2 + y[k+2]"
    assert poly_text(P()) == "0"
    assert poly_text(P.const(Fraction(-3, 2))) == "-3/2"
