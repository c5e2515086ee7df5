"""Polynomial ring: arithmetic laws, calculus maps, gcd, canonical forms."""

import math
import random
from fractions import Fraction

import pytest

from conftest import is_canonical_coefficient, mono_of
from lpvident import poly
from lpvident.errors import ExactDivisionError, UnboundIndeterminate
from lpvident.indets import (Indeterminate, Kind, Role, parameter,
                             ref_parameter, signal)
from lpvident.expr import Expression
from lpvident.groebner import GPoly
from lpvident.poly import (Polynomial, _pseudo_rem, collect, exact_div,
                           exact_quotient, mono_div, mono_key, mono_mul,
                           poly_gcd, poly_lcm, poly_text, primitive_parts,
                           rational_content)

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
    acc = P.const(1)
    for n in range(1, 7):
        acc = acc * p
        assert p ** n == acc
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


def _evaluate_term_by_term(p, bindings):
    total = Fraction(0)
    for m, c in p.terms.items():
        val = c
        for v, e in m:
            if v not in bindings:
                raise UnboundIndeterminate(f"no value bound for {v.display()}")
            val *= Fraction(bindings[v]) ** e
        total += val
    return total


def test_evaluate_matches_term_by_term_oracle():
    rng = random.Random(29)
    indets = [TH1, TH2, U, Y]
    for _ in range(40):
        p = rand_poly(rng, indets, max_terms=8, max_deg=3)
        bind = {v: rng.choice([0, 1, -2, Fraction(3, 7), Fraction(-5, 2)])
                for v in indets}
        assert p.evaluate(bind) == _evaluate_term_by_term(p, bind)


def test_term_values_match_term_by_term_oracle():
    rng = random.Random(31)
    indets = [TH1, TH2, U, Y]
    polys = [P(), P.const(0), P.const(Fraction(-7, 3)), P.const(5),
             pv(U, 3).scale(Fraction(2, 9)), pv(TH1) * pv(Y, 2),
             # coefficients with distinct denominators
             pv(TH1).scale(Fraction(1, 2)) + pv(U, 2).scale(Fraction(-2, 3))
             + P.const(Fraction(5, 7))]
    polys += [rand_poly(rng, indets, max_terms=8, max_deg=3)
              for _ in range(40)]
    values = [0, 1, -3, 7, Fraction(3, 7), Fraction(-5, 2), Fraction(11, 4)]
    for p in polys:
        for _ in range(3):
            bind = {v: rng.choice(values) for v in indets}
            want = _evaluate_term_by_term(p, bind)
            assert p.evaluate(bind) == want
            nums, den = p.term_values(bind)
            assert den > 0 and all(type(n) is int for n in nums)
            assert [Fraction(n, den) for n in nums] == [
                _evaluate_term_by_term(P({m: c}), bind)
                for m, c in p.terms.items()]
            assert Fraction(sum(nums), den) == want


def test_evaluate_unbound_on_both_paths():
    one_term = pv(TH1) * pv(Y, 2)
    multi_term = pv(TH1) + pv(Y)
    for p in (one_term, multi_term):
        with pytest.raises(UnboundIndeterminate, match="no value bound for y"):
            p.evaluate({TH1: Fraction(2)})
        with pytest.raises(UnboundIndeterminate, match="no value bound for y"):
            p.term_values({TH1: 3})


def test_evaluate_reads_bindings_exactly():
    # float and str values are read as Fraction(x) reads them, exactly
    polys = [P(), P.const(2), pv(TH1) * pv(Y, 2),
             pv(TH1) + pv(Y, 2).scale(Fraction(1, 3))]
    for p in polys:
        for bind in ({TH1: 0.5, Y: "2/3"}, {TH1: 0.1, Y: -3}):
            exact = {v: Fraction(x) for v, x in bind.items()}
            got = p.evaluate(bind)
            assert type(got) is Fraction and got == p.evaluate(exact)
            assert p.term_values(bind) == p.term_values(exact)


def test_evaluate_unbound_in_a_later_term():
    # the first terms bind, and their powers are cached before Y is met
    p = pv(TH1, 2) + pv(TH1, 2) * pv(U) + pv(U) * pv(Y, 3)
    bind = {TH1: Fraction(2), U: Fraction(-1, 3)}
    with pytest.raises(UnboundIndeterminate, match="no value bound for y"):
        p.evaluate(bind)
    with pytest.raises(UnboundIndeterminate, match="no value bound for y"):
        _evaluate_term_by_term(p, bind)


def test_primitive_and_content_golden_values():
    p = P.const(-2) * pv(TH1) + P.const(4)
    assert p.primitive() == pv(TH1) - P.const(2)
    assert p.content() == Fraction(-2)

    p = P.const(6) * pv(U, 2) * pv(Y)
    assert p.primitive() == pv(U, 2) * pv(Y)
    assert p.content() == Fraction(6)


def test_primitive_scale_free_and_idempotent():
    rng = random.Random(5)
    for _ in range(20):
        p = rand_poly(rng, [TH1, U, Y])
        if p.is_zero():
            continue
        c = Fraction(0)
        while c == 0:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        prim = p.primitive()
        assert prim == p.scale(c).primitive()
        assert prim.primitive() == prim and prim.content() == 1


def test_primitive_of_zero_is_zero():
    assert P().primitive() == P()
    assert P().content() == 0


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


def _oracle_exact_div(a, b):
    """Long division over Fractions that rebuilds the remainder for every
    quotient term."""
    if b.is_constant():
        return a.scale(Fraction(1) / b.constant_value())
    q: dict = {}
    r = a
    bm, bc = b.leading()
    while not r.is_zero():
        rm, rc = r.leading()
        m = _oracle_mono_div(rm, bm)
        if m is None:
            raise ExactDivisionError("inexact polynomial division")
        c = Fraction(rc) / bc
        q[m] = q.get(m, Fraction(0)) + c
        r = r - Polynomial({m: c}) * b
    return Polynomial(q)


def _oracle_mono_div(a, b):
    out = dict(a)
    for v, e in b:
        r = out.get(v, 0) - e
        if r < 0:
            return None
        if r == 0:
            out.pop(v)
        else:
            out[v] = r
    return mono_of(out)


@pytest.mark.parametrize("shape", ["monomial", "constant", "multi-term"])
def test_exact_div_matches_remainder_rebuilding_oracle(shape):
    rng = random.Random(23)
    indets = [TH1, TH2, U, Y]
    seen = 0
    while seen < 40:
        a = rand_poly(rng, indets, max_terms=6)
        if shape == "monomial":
            b = rand_poly(rng, indets, max_terms=1)
        elif shape == "constant":
            b = P.const(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        else:
            b = rand_poly(rng, indets, max_terms=4)
        if b.is_zero() or (shape == "multi-term") != (len(b.terms) > 1):
            continue
        seen += 1
        got = exact_div(a * b, b)
        assert got == _oracle_exact_div(a * b, b) == a
        assert all(map(is_canonical_coefficient, got.terms.values()))


@pytest.mark.parametrize("a,b", [
    (pv(U, 2) + P.const(1), pv(U)),                 # one-term divisor
    (pv(U) * pv(Y), pv(U, 2)),                      # exponent too small
    (pv(U) * pv(Y), pv(TH1) * pv(U)),               # indeterminate missing
    (pv(TH1) * pv(U) + P.const(1), pv(TH1) + P.const(1)),
    (pv(TH1, 2) * pv(U) + pv(Y), pv(TH1) * pv(U) + pv(Y)),
])
def test_inexact_division_raises_in_both_paths(a, b):
    with pytest.raises(ExactDivisionError):
        _oracle_exact_div(a, b)
    with pytest.raises(ExactDivisionError):
        exact_div(a, b)


# each place that divides one coefficient by another, on 3 over 2: the
# quotient must be Fraction(3, 2), never the float 1.5 that int / int gives
_THREE_HALVES = {
    "exact_quotient": lambda: exact_quotient(3, 2),
    "exact_div one-term divisor": lambda: exact_div(
        P.const(3) * pv(U), P.const(2) * pv(U)).terms[()],
    "exact_div long division": lambda: exact_div(
        pv(U).scale(3) + P.const(3), pv(U).scale(2) + P.const(2)).terms[()],
    "Expression over a constant": lambda: Expression(
        P.const(3), P.const(2)).num.terms[()],
    "Expression over its content": lambda: Expression(
        pv(U).scale(3), pv(U).scale(2) + P.const(2)).num.terms[((U, 1),)],
    "Expression.constant_value": lambda: Expression(3, 2).constant_value(),
    "GPoly.monic": lambda: GPoly({(1,): 2, (0,): 3}, (TH1,)).monic().terms[(0,)],
}


@pytest.mark.parametrize("site", sorted(_THREE_HALVES))
def test_coefficient_quotients_are_exact(site):
    got = _THREE_HALVES[site]()
    assert type(got) is Fraction and got == Fraction(3, 2)


def test_exact_quotient_is_canonical():
    cases = [(6, 3, 2), (-6, 4, Fraction(-3, 2)), (0, 5, 0), (7, -7, -1),
             (Fraction(3, 2), Fraction(1, 2), 3),
             (1, Fraction(2, 3), Fraction(3, 2)),
             (Fraction(4, 3), 2, Fraction(2, 3))]
    for a, b, want in cases:
        got = exact_quotient(a, b)
        assert got == want and type(got) is type(want), (a, b)
    # an integral quotient comes back as an int at the other sites too
    assert type(Expression(6, 3).constant_value()) is int
    monic = GPoly({(1,): Fraction(1, 2), (0,): Fraction(3, 2)}, (TH1,)).monic()
    assert monic.terms == {(1,): 1, (0,): 3}
    assert all(type(c) is int for c in monic.terms.values())


def test_poly_gcd_recovers_common_factor():
    f = pv(U) + pv(TH1)           # shared factor
    a = f * (pv(Y) + P.const(1))
    b = f * (pv(Y, 2) + pv(TH1))
    g = poly_gcd(a, b)
    # defined up to a rational unit; our gcd is primitive with positive lead
    assert exact_div(a, g) is not None
    assert g == f.primitive()


def test_poly_gcd_of_coprime_is_constant():
    g = poly_gcd(pv(U) + P.const(1), pv(Y) + P.const(2))
    assert g.is_constant() and not g.is_zero()


def test_poly_gcd_of_many_folds_in_any_order():
    # the gcd of several polynomials is the pairwise gcd folded over them;
    # zero inputs are skipped and the normalised result ignores the order
    rng = random.Random(11)
    f = pv(U) - P.const(2) * pv(TH1)
    for _ in range(20):
        polys = [f * rand_poly(rng, [TH1, U, Y]) for _ in range(3)] + [P()]
        want = poly_gcd(poly_gcd(polys[0], polys[1]), polys[2])
        assert exact_div(want, f) * f == want
        for _ in range(3):
            rng.shuffle(polys)
            assert poly_gcd(*polys) == want
    assert poly_gcd() == P() and poly_gcd(P(), P()) == P()
    assert poly_gcd(P.const(-3) * pv(U)) == pv(U)


def test_poly_gcd_with_a_monomial_takes_least_exponents():
    rng = random.Random(5)
    indets = [TH1, TH2, U, Y, X2]
    checked = 0
    for _ in range(300):
        exps = {v: rng.randint(0, 3) for v in indets}
        mono = P.const(Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                                rng.randint(1, 4)))
        for v, e in exps.items():
            if e:
                mono = mono * pv(v, e)
        other = rand_poly(rng, indets, max_terms=4, max_deg=3)
        if mono.is_constant() or other.is_constant():
            continue
        want = P.const(1)
        for v in indets:
            low = min([exps[v]] + [dict(m).get(v, 0) for m in other.terms])
            if low:
                want = want * pv(v, low)
        for a, b in ((mono, other), (other, mono)):
            g = poly_gcd(a, b)
            assert g == want
            assert exact_div(a, g) * g == a
            assert exact_div(b, g) * g == b
        checked += 1
    assert checked > 150


def test_poly_lcm_product_relation():
    a = (pv(U) + P.const(1)) * pv(TH1)
    b = (pv(U) + P.const(1)) * pv(Y)
    lcm = poly_lcm(a, b)
    assert exact_div(lcm, a) is not None
    assert exact_div(lcm, b) is not None
    g = poly_gcd(a, b)
    assert (a * b).primitive() == (lcm * g).primitive()


# reference gcd and lcm for the oracle test below: the primitive PRS
# written with a separate branch for operands whose main variables differ,
# an exit at a constant pseudo-remainder, the gcd rebuilt by repeated +, and
# lcm = ab / gcd
def _two_branch_gcd(*polys):
    nonzero = sorted((p for p in polys if p.terms), key=lambda p: len(p.terms))
    if len(nonzero) < 2:
        return nonzero[0].primitive() if nonzero else P()
    g = nonzero[0]
    for p in nonzero[1:]:
        g = _two_branch_gcd2(g, p)
        if g == P.const(1):
            break
    return g


def _two_branch_gcd2(a, b):
    if a.is_constant() or b.is_constant():
        return P.const(1)
    if len(b.terms) == 1:
        a, b = b, a
    if len(a.terms) == 1:
        (m,) = a.terms
        for t in b.terms:
            dt = dict(t)
            m = mono_of({v: min(e, dt[v]) for v, e in m if v in dt})
        return P({m: 1})

    def main_var(p):
        return max(p.indeterminates(), key=lambda v: v.sort_key)

    def view(p, v):
        return {(m[0][1] if m else 0): c for m, c in collect(p, {v}).items()}

    va, vb = main_var(a), main_var(b)
    if va != vb:
        v = va if va.sort_key > vb.sort_key else vb
        small, big = (b, a) if v == va else (a, b)
        return _two_branch_gcd2(_two_branch_gcd(*view(big, v).values()), small)
    ua, ub = view(a, va), view(b, va)
    ca, cb = _two_branch_gcd(*ua.values()), _two_branch_gcd(*ub.values())
    pa = dict(zip(ua, primitive_parts(exact_div(c, ca) for c in ua.values())))
    pb = dict(zip(ub, primitive_parts(exact_div(c, cb) for c in ub.values())))
    gc = _two_branch_gcd2(ca, cb)
    if max(pa) < max(pb):
        pa, pb = pb, pa
    while True:
        r = _pseudo_rem(pa, pb)
        if not r:
            g = P()
            for d, c in pb.items():
                g = g + c * pv(va, d)
            break
        if max(r) == 0:
            g = P.const(1)
            break
        r = dict(zip(r, primitive_parts(r.values())))
        rc = _two_branch_gcd(*r.values())
        pa, pb = pb, {d: exact_div(c, rc) for d, c in r.items()}
    return (gc * g).primitive()


def _two_branch_lcm(a, b):
    if a.is_zero() or b.is_zero():
        return P()
    return exact_div(a * b, _two_branch_gcd(a, b)).primitive()


def test_gcd_and_lcm_agree_with_the_two_branch_prs():
    # pairs with a shared factor over a random variable set, each cofactor
    # over its own set, so the largest indeterminates of the two operands
    # often differ; constants, monomials and fractional coefficients mixed in
    rng = random.Random(30)
    indets = [TH1, TH2, U, Y, X2]

    def factor(max_vars):
        shape = rng.random()
        coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6),
                         rng.randint(1, 4))
        if shape < 0.2:
            return P.const(coeff)
        if shape < 0.4:
            mono = P.const(coeff)
            for v in rng.sample(indets, rng.randint(1, max_vars)):
                mono = mono * pv(v, rng.randint(1, 2))
            return mono
        return rand_poly(rng, rng.sample(indets, rng.randint(1, max_vars)),
                         max_terms=3)

    seen = dict.fromkeys(("main variables differ", "monomial", "constant",
                          "fractional coefficient"), 0)
    for _ in range(240):
        f = factor(2)
        a, b = f * factor(3), f * factor(3)
        for p in (a, b):
            seen["monomial"] += len(p.terms) == 1 and not p.is_constant()
            seen["constant"] += p.is_constant()
            seen["fractional coefficient"] += any(
                type(c) is Fraction for c in p.terms.values())
        if not (a.is_constant() or b.is_constant()):
            main = [max(p.indeterminates(), key=lambda v: v.sort_key)
                    for p in (a, b)]
            seen["main variables differ"] += main[0] is not main[1]
        assert poly_gcd(a, b) == _two_branch_gcd(a, b)
        assert poly_lcm(a, b) == _two_branch_lcm(a, b)
    assert min(seen.values()) >= 20, seen


def test_mono_key_matches_aligned_degrevlex():
    # the canonical order on (indeterminate, exponent) monomials is
    # degrevlex on exponent tuples aligned with the variables, largest first
    variables = sorted(
        [TH1, TH2, TH3, ref_parameter(1), ref_parameter(2), U, U.with_order(1),
         Y, Y.with_order(2), X2, signal("rho", Role.SCHEDULING)],
        key=lambda v: v.sort_key, reverse=True)
    grl = lambda m: (sum(m), tuple(-e for e in reversed(m)))  # degrevlex key
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


def test_mono_mul_merge_matches_sorted_exponent_sum():
    # every kind, every signal role at several orders; the second operand
    # rebuilds its indeterminates through the constructor, which must hand
    # back the interned objects that the merge compares by identity
    variables = [ref_parameter(1), ref_parameter(2), TH1, TH2, TH3]
    variables += [signal(b, r, k) for b, r in (("rho", Role.SCHEDULING),
                                               ("u", Role.INPUT),
                                               ("y", Role.OUTPUT),
                                               ("x2", Role.STATE))
                  for k in (0, 1, 3)]
    rng = random.Random(11)

    def rand_exps():
        return {v: e for v in variables
                if (e := rng.choice((0, 0, 0, 0, 1, 2, 3)))}

    def copy(v):
        return Indeterminate(v.kind, v.base, v.index, v.role, v.order)

    for _ in range(2000):
        da, db = rand_exps(), rand_exps()
        a = mono_of(da)
        b = mono_of({copy(v): e for v, e in db.items()})
        summed = dict(da)
        for v, e in db.items():
            summed[v] = summed.get(v, 0) + e
        got = mono_mul(a, b)
        assert got == mono_of(summed)
        keys = [v.sort_key for v, _ in got]
        assert keys == sorted(set(keys))
    assert mono_mul((), ((U, 1),)) == ((U, 1),) == mono_mul(((U, 1),), ())


def test_mono_div_merge_matches_exponent_difference():
    # the divisor rebuilds its indeterminates through the constructor, as in
    # the mono_mul test above
    variables = [ref_parameter(1), TH1, TH2, TH3]
    variables += [signal(b, r, k) for b, r in (("u", Role.INPUT),
                                               ("y", Role.OUTPUT))
                  for k in (0, 2)]
    rng = random.Random(13)

    def rand_exps():
        return {v: e for v in variables
                if (e := rng.choice((0, 0, 0, 1, 2, 3)))}

    def copy(v):
        return Indeterminate(v.kind, v.base, v.index, v.role, v.order)

    for _ in range(2000):
        da, db = rand_exps(), rand_exps()
        a = mono_of(da)
        b = mono_of({copy(v): e for v, e in db.items()})
        got = mono_div(a, b)
        if all(da.get(v, 0) >= e for v, e in db.items()):
            diff = {v: e - db.get(v, 0) for v, e in da.items()}
            assert got == mono_of({v: e for v, e in diff.items() if e})
            assert mono_mul(got, b) == a
        else:
            assert got is None
    assert mono_div(((U, 1),), ()) == ((U, 1),)
    assert mono_div((), ((U, 1),)) is None


def test_ring_results_keep_nonzero_canonical_coefficients():
    # the public constructor, const and scale read any exact value, drop
    # zeros and keep an integral one as an int
    p = P({((U, 1),): Fraction(4, 2), ((Y, 1),): 0, (): Fraction(1, 2),
           ((TH1, 1),): "6/4", ((TH2, 1),): 2.5, ((X2, 1),): Fraction(0)})
    assert p.terms == {((U, 1),): 2, (): Fraction(1, 2),
                       ((TH1, 1),): Fraction(3, 2), ((TH2, 1),): Fraction(5, 2)}
    assert type(p.terms[((U, 1),)]) is int
    assert all(map(is_canonical_coefficient, p.terms.values()))
    for q in (P.const(Fraction(6, 3)), P.const("-4/2"), P.const(3.0),
              pv(U).scale(Fraction(8, 4)), P.const(True)):
        assert all(map(is_canonical_coefficient, q.terms.values())), q.terms
    half = P({((U, 1),): Fraction(1, 2), (): Fraction(-3, 2)})
    assert (half + half).terms == {((U, 1),): 1, (): -3}
    assert all(map(is_canonical_coefficient, (half + half).terms.values()))
    rng = random.Random(13)
    for _ in range(30):
        a, b = rand_poly(rng, [TH1, U, Y]), rand_poly(rng, [TH1, U, Y])
        for r in (a + b, a - b, -a, a * b, a.scale(Fraction(-3, 2)),
                  a.scale(Fraction(2, 1)), a * a.scale(6), a + (-a)):
            assert all(map(is_canonical_coefficient, r.terms.values()))


def _oracle_product(a, b):
    """The plain double loop over Fraction coefficients."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = mono_mul(m1, m2)
            if m in out:
                s = out[m] + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
            else:
                out[m] = c1 * c2
    return out


def test_product_matches_fraction_double_loop():
    rng = random.Random(17)
    indets = [TH1, TH2, U, Y, X2]

    def rand_terms(integer):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            m = mono_of({v: e for v in indets if (e := rng.randint(0, 2))})
            num = rng.randint(-9, 9)
            terms[m] = num if integer else Fraction(num, rng.randint(1, 12))
        return P(terms)

    a, b = pv(TH1) + pv(U), pv(TH1) - pv(U)
    half = P({((U, 1),): Fraction(1, 2), ((Y, 1),): Fraction(-2, 3)})
    cases = [(P(), a), (a, P()), (P(), P()),
             (P.const(Fraction(-3, 4)), a), (a, pv(Y, 2)),
             (pv(X2).scale(Fraction(5, 6)), half), (half, P.const(7)),
             (a, b), (b, a), (half, half), (half, -half)]
    for _ in range(300):
        cases.append((rand_terms(rng.random() < 0.5),
                      rand_terms(rng.random() < 0.5)))
    # exponent sums at the edge of a packed field: theta1^a*theta1^b, with
    # a + b a power of two, sits next to the field of u, which a carry
    # would reach
    for ea, eb in ((1, 1), (4, 4), (3, 5), (2 ** 40, 2 ** 40)):
        x_a = P({(): 1, ((TH1, ea),): 2, ((U, 1),): -1, ((TH1, 1), (U, 1)): 3})
        x_b = P({(): 1, ((TH1, eb),): 5, ((U, 1),): 1})
        cases += [(x_a, x_b), (x_b, x_a), (x_a, x_a), (x_b, x_b)]
    # 24 indeterminates: packed keys exceed 64 bits
    many = [parameter("theta", k) for k in range(1, 25)]

    def rand_wide():
        # one term holds every indeterminate at exponent 2 or 3
        full = mono_of({v: rng.randint(2, 3) for v in many})
        return P({full: 1, **{
            mono_of({v: rng.randint(1, 3)
                     for v in rng.sample(many, rng.randint(0, 24))}):
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
            for _ in range(rng.randint(1, 7))}})
    for _ in range(20):
        x, y = rand_wide(), rand_wide()
        width = (max(e for m in x.terms for _, e in m)
                 + max(e for m in y.terms for _, e in m)).bit_length()
        assert width * len(many) > 64
        cases.append((x, y))
    # operands with disjoint indeterminate sets
    cases += [(pv(TH1) + pv(TH2, 2) + 1, pv(U) - pv(Y) * pv(X2)),
              (pv(U, 3) - 2, pv(TH1) * pv(TH2) + pv(TH3).scale(Fraction(1, 2)))]
    # a dense square: the 35 monomials of degree at most 4 in three
    # indeterminates
    dense = P({mono_of({TH1: i, U: j, Y: k}):
               Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 3))
               for i in range(5) for j in range(5 - i) for k in range(5 - i - j)})
    assert len(dense.terms) == 35
    cases.append((dense, dense))
    # (1 + t - t^2)^2 with t = theta1: t^2 cancels at t*t and comes back
    # at -t^2*1, after t^3, so a product that keeps the cancelled entry
    # has another order
    once = P({(): 1, ((TH1, 1),): 1, ((TH1, 2),): -1})
    assert list(_oracle_product(once, once)) == [
        (), ((TH1, 1),), ((TH1, 3),), ((TH1, 2),), ((TH1, 4),)]
    cases.append((once, once))
    for x, y in cases:
        got = (x * y).terms
        want = _oracle_product(x, y)
        assert got == want
        assert list(got) == list(want)   # same term order as well
        assert all(map(is_canonical_coefficient, got.values()))
    # products that cancel: (a+b)(a-b) against a^2 - b^2
    diff = a * b - (pv(TH1, 2) - pv(U, 2))
    assert diff.is_zero() and diff.terms == {}
    assert (a * b).terms == {((TH1, 2),): 1, ((U, 2),): -1}
    third = a.scale(Fraction(1, 3))
    assert (third * b.scale(Fraction(3, 2)) - (a * b).scale(Fraction(1, 2))
            ).is_zero()


def test_product_merges_each_distinct_monomial_once(monkeypatch):
    # p = (1 + x + u + theta1)^3 has 20 terms; p*p has 400 term pairs but
    # only the 84 monomials of degree at most 6 in three indeterminates
    p = (1 + pv(X2) + pv(U) + pv(TH1)) ** 3
    assert len(p.terms) == 20
    calls = []

    def counting(a, b):
        calls.append(None)
        return mono_mul(a, b)
    monkeypatch.setattr(poly, "mono_mul", counting)
    sq = p * p
    assert len(sq.terms) == 84
    assert len(calls) == 84


def test_one_term_product_matches_term_by_term_product():
    # a one-term operand of coefficient 1, -1, an integer or a fraction, on
    # a constant or a monomial, against a longer operand, another one-term
    # operand and the zero polynomial, in both operand orders
    rng = random.Random(23)
    indets = [ref_parameter(1), TH1, U, Y, Y.with_order(1), X2]
    longer = [rand_poly(rng, indets, max_terms=6) for _ in range(20)]
    longer += [P(), pv(U), -pv(Y), pv(TH1) - pv(U, 2)]
    for c in (1, -1, 7, Fraction(-3, 5), Fraction(2, 9)):
        for m in ((), ((TH1, 1),), ((U, 2), (Y, 1)), ((TH1, 1), (X2, 3))):
            one = P({m: c})
            for other in longer + [P({((U, 1),): c}), P.const(c)]:
                for x, y in ((one, other), (other, one)):
                    got = (x * y).terms
                    want = _oracle_product(x, y)
                    assert got == want
                    assert list(got) == list(want)
                    assert all(map(is_canonical_coefficient, got.values()))


def _oracle_differentiate(p):
    """The time derivative built through a dict and a sort per product."""
    out = {}
    for m, c in p.terms.items():
        for v, e in m:
            if v.kind is not Kind.SIGNAL:
                continue
            d = dict(m)
            if e == 1:
                d.pop(v)
            else:
                d[v] = e - 1
            w = v.with_order(v.order + 1)
            d[w] = d.get(w, 0) + 1
            nm = mono_of(d)
            out[nm] = out.get(nm, Fraction(0)) + c * e
    return P(out)


def _oracle_shift(p):
    """The forward shift built through a dict and a sort per monomial."""
    out = {}
    for m, c in p.terms.items():
        nm = mono_of({(v.with_order(v.order + 1) if v.kind is Kind.SIGNAL
                       else v): e for v, e in m})
        out[nm] = out.get(nm, Fraction(0)) + c
    return P(out)


def test_differentiate_and_shift_match_sorted_construction():
    # every kind and role, with adjacent orders so that a derivative lands
    # on an order the monomial already holds
    variables = [ref_parameter(1), ref_parameter(2), TH1, TH2]
    variables += [signal(b, r, k) for b, r in (("rho", Role.SCHEDULING),
                                               ("u", Role.INPUT),
                                               ("y", Role.OUTPUT),
                                               ("x1", Role.STATE),
                                               ("x2", Role.STATE))
                  for k in (0, 1, 2, 4)]
    rng = random.Random(29)

    def rand_terms():
        terms = {}
        for _ in range(rng.randint(0, 7)):
            m = mono_of({v: e for v in variables
                         if (e := rng.choice((0, 0, 0, 0, 0, 1, 1, 2, 3)))})
            terms[m] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return P(terms)

    x, x1 = pv(X2), pv(X2.with_order(1))
    cases = [P(), P.const(3), pv(TH1), x * pv(Y, 1) * pv(Y.with_order(1)),
             x * pv(Y.with_order(1)) - x1 * pv(Y),   # x'*y' cancels
             pv(X2, 3) * pv(X2.with_order(1), 2) * pv(TH2)]
    cases += [rand_terms() for _ in range(400)]
    for p in cases:
        for got, want in ((p.differentiate(), _oracle_differentiate(p)),
                          (p.shift(), _oracle_shift(p))):
            assert got.terms == want.terms
            assert list(got.terms) == list(want.terms)
            assert all(map(is_canonical_coefficient, got.terms.values()))
            for m in got.terms:
                keys = [v.sort_key for v, _ in m]
                assert keys == sorted(set(keys))
                assert all(e > 0 for _, e in m)
    assert (x * pv(Y.with_order(1)) - x1 * pv(Y)).differentiate() == (
        x * pv(Y.with_order(2)) - pv(X2.with_order(2)) * pv(Y))


def test_poly_text_canonical_forms():
    p = pv(TH2) * pv(TH3) * pv(U, 3) * pv(Y) - pv(U, 2) * pv(Y.with_order(2))
    assert poly_text(p) == "theta2*theta3*u^3*y - u^2*y''"
    k2 = pv(Y.with_order(2)) - pv(TH1) * pv(Y, 2)
    assert poly_text(k2, discrete=True) == "-theta1*y[k]^2 + y[k+2]"
    assert poly_text(P()) == "0"
    assert poly_text(P.const(Fraction(-3, 2))) == "-3/2"


def _oracle_content(p):
    """The signed content as a numerator-gcd / denominator-lcm loop."""
    if not p.terms:
        return Fraction(0)
    num, den = 0, 1
    for c in p.terms.values():
        num = math.gcd(num, c.numerator)
        den = den * c.denominator // math.gcd(den, c.denominator)
    cont = Fraction(num, den)
    return -cont if p.leading()[1] < 0 else cont


def _oracle_rat_gcd_fold(polys):
    """The joint content as a pairwise rational-gcd fold of contents."""
    def rat_gcd(a, b):
        if a == 0:
            return abs(b)
        if b == 0:
            return abs(a)
        return Fraction(math.gcd(a.numerator * b.denominator,
                                 b.numerator * a.denominator),
                        a.denominator * b.denominator)
    c = Fraction(0)
    for p in polys:
        c = rat_gcd(c, _oracle_content(p))
    return c


def _oracle_normalize_row(row):
    """Null-space row normalisation with its own joint-content loop."""
    content = P()
    for p in sorted((p for p in row if not p.is_zero()),
                    key=lambda p: len(p.terms)):
        content = poly_gcd(content, p)
        if content == P.const(1):
            break
    if not content.is_zero() and content != P.const(1):
        row = [exact_div(p, content) if not p.is_zero() else p for p in row]
    nums, dens = 0, 1
    for p in row:
        for coef in p.terms.values():
            nums = math.gcd(nums, coef.numerator)
            dens = dens * coef.denominator // math.gcd(dens, coef.denominator)
    if nums:
        scale = Fraction(dens, nums)
        if _oracle_content(next(p for p in row if not p.is_zero())) < 0:
            scale = -scale
        row = [p.scale(scale) for p in row]
    return [Expression(p) for p in row]


def test_rational_content_matches_the_three_loops_it_replaces():
    from lpvident.elimination import _normalize_row
    rng = random.Random(31)
    assert rational_content([]) == 0
    assert rational_content([P(), P()]) == 0
    nontrivial = 0
    for _ in range(300):
        polys = [rand_poly(rng, [TH1, U, Y], max_terms=rng.randint(0, 4))
                 for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.5:
            # a shared fraction makes the content nontrivial
            k = Fraction(rng.choice((-6, -2, 3, 10)), rng.choice((1, 5, 7)))
            polys = [p.scale(k) for p in polys]
        c = rational_content(polys)
        assert c >= 0
        assert c == _oracle_rat_gcd_fold(polys)
        nontrivial += c not in (0, 1)
        for p in polys:
            assert p.content() == _oracle_content(p)
            if not p.is_zero():
                assert (p.content() < 0) == (p.leading()[1] < 0)
        if rng.random() < 0.5:
            # a common factor makes the gcd polynomial nontrivial too
            f = pv(TH2) - Fraction(rng.randint(1, 5), rng.randint(1, 3))
            polys = [p * f for p in polys]
        assert _normalize_row(polys) == _oracle_normalize_row(polys)
    assert nontrivial > 50


def _oracle_strip_rational(polys):
    """The PRS step primitive_parts replaced: divide by the joint rational
    content, sign untouched."""
    c = rational_content(polys)
    if c == 0 or c == 1:
        return polys
    return [p.scale(1 / c) for p in polys]


def _oracle_row_content_and_sign(row):
    """The content-and-sign half of the null-space row normalisation that
    primitive_parts replaced."""
    cont = rational_content(row)
    if cont:
        scale = 1 / cont
        if next(p for p in row if not p.is_zero()).leading()[1] < 0:
            scale = -scale
        row = [p.scale(scale) for p in row]
    return row


def test_primitive_parts_matches_the_two_loops_it_replaces():
    rng = random.Random(43)
    assert primitive_parts([]) == []
    assert primitive_parts([P(), P()]) == [P(), P()]
    assert primitive_parts([P(), pv(U) * Fraction(-2, 3) + 4, P.const(6)]) == [
        P(), pv(U) - 6, P.const(-9)]
    signs = scaled = 0
    for _ in range(300):
        polys = [rand_poly(rng, [TH1, U, Y], max_terms=rng.randint(0, 4))
                 for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.5:
            k = Fraction(rng.choice((-6, -2, 3, 10)), rng.choice((1, 5, 7)))
            polys = [p.scale(k) for p in polys]
        got = primitive_parts(polys)
        assert got == _oracle_row_content_and_sign(polys)
        # the PRS step is the same up to one sign for the whole list
        stripped = _oracle_strip_rational(polys)
        assert got == stripped or got == [-p for p in stripped]
        signs += got != stripped
        scaled += got != polys
        if any(p.terms for p in polys):
            assert next(p for p in got if p.terms).leading()[1] > 0
            assert rational_content(got) == 1
    assert signs > 30 and scaled > 100
