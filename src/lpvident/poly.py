"""Sparse multivariate polynomials over exact rationals.

A monomial is a tuple of (indeterminate, exponent) pairs with positive
exponents, sorted ascending by the canonical indeterminate order; the empty
tuple is 1.  A polynomial maps monomials to nonzero Fraction coefficients.
All arithmetic is exact; there is no floating point anywhere.

The canonical monomial order is degree-reverse-lexicographic over the
canonical indeterminate order.  It fixes leading terms, printing order,
sign normalization and elimination pivot tie-breaks.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd

from .errors import (ExactDivisionError, UnboundIndeterminate,
                     ZeroPolynomialError)
from .indets import Indeterminate, Kind, Role

Monomial = tuple  # tuple[tuple[Indeterminate, int], ...]

MONO_ONE: Monomial = ()


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for v, e in b:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items(), key=lambda p: p[0].sort_key))


def mono_div(a: Monomial, b: Monomial) -> Monomial | None:
    """a / b, or None when b does not divide a."""
    out = dict(a)
    for v, e in b:
        r = out.get(v, 0) - e
        if r < 0:
            return None
        if r == 0:
            out.pop(v)
        else:
            out[v] = r
    return tuple(sorted(out.items(), key=lambda p: p[0].sort_key))


def mono_gcd(a: Monomial, b: Monomial) -> Monomial:
    db = dict(b)
    out = []
    for v, e in a:
        if v in db:
            out.append((v, min(e, db[v])))
    return tuple(sorted(out, key=lambda p: p[0].sort_key))


def mono_key(m: Monomial) -> tuple:
    """Sort key of the canonical degrevlex order (larger key, larger term).

    Reverse-lex compares from the smallest indeterminate up, and the smaller
    exponent wins; monomials store ascending indeterminates, so negated
    exponents and natural tuple order do it.  Equal-degree monomials that
    agree on a prefix cannot end there, so tuple length never decides.
    """
    return (mono_degree(m), tuple((v.sort_key, -e) for v, e in m))


class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        t = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c:
                    t[m] = c
        object.__setattr__(self, "terms", t)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    # --- constructors ---

    @staticmethod
    def const(c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial({MONO_ONE: c} if c else {})

    @staticmethod
    def var(v: Indeterminate, exp: int = 1) -> "Polynomial":
        if exp == 0:
            return Polynomial.const(1)
        return Polynomial({((v, exp),): Fraction(1)})

    # --- predicates ---

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and MONO_ONE in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get(MONO_ONE, Fraction(0))

    # --- structure ---

    def indeterminates(self) -> set:
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def has_kind(self, kind: Kind, role: Role | None = None) -> bool:
        for m in self.terms:
            for v, _ in m:
                if v.kind is kind and (role is None or v.role is role):
                    return True
        return False

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(mono_degree(m) for m in self.terms)

    def degree_in(self, vars_: set) -> int:
        """Joint total degree in the given indeterminates."""
        best = 0
        for m in self.terms:
            best = max(best, sum(e for v, e in m if v in vars_))
        return best

    def sorted_terms(self) -> list:
        """Terms sorted descending under the canonical order."""
        return sorted(self.terms.items(), key=lambda t: mono_key(t[0]), reverse=True)

    def leading(self) -> tuple:
        """(monomial, coefficient) of the canonical leading term."""
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        m = max(self.terms, key=mono_key)
        return m, self.terms[m]

    # --- ring arithmetic ---

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = _coerce(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial; use Expression")
        out = Polynomial.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        if not c:
            return Polynomial()
        return Polynomial({m: cc * c for m, cc in self.terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # --- calculus and shifts ---

    def differentiate(self) -> "Polynomial":
        """Time derivative: signals gain one order, parameters are constant."""
        out = Polynomial()
        for m, c in self.terms.items():
            for i, (v, e) in enumerate(m):
                if v.kind is not Kind.SIGNAL:
                    continue
                rest = list(m)
                if e == 1:
                    rest.pop(i)
                else:
                    rest[i] = (v, e - 1)
                bumped = mono_mul(tuple(rest), ((v.with_order(v.order + 1), 1),))
                out = out + Polynomial({bumped: c * e})
        return out

    def shift(self) -> "Polynomial":
        """Forward time shift: a ring homomorphism bumping signal orders."""
        out: dict = {}
        for m, c in self.terms.items():
            nm = tuple(sorted(
                ((v.with_order(v.order + 1) if v.kind is Kind.SIGNAL else v, e)
                 for v, e in m),
                key=lambda p: p[0].sort_key))
            out[nm] = out.get(nm, Fraction(0)) + c
        return Polynomial(out)

    def partial(self, var: Indeterminate) -> "Polynomial":
        """Partial derivative with respect to one indeterminate."""
        out: dict = {}
        for m, c in self.terms.items():
            d = dict(m)
            if var not in d:
                continue
            e = d[var]
            if e == 1:
                d.pop(var)
            else:
                d[var] = e - 1
            nm = tuple(sorted(d.items(), key=lambda p: p[0].sort_key))
            out[nm] = out.get(nm, Fraction(0)) + c * e
        return Polynomial(out)

    def evaluate(self, bindings: dict) -> Fraction:
        """Exact value with every indeterminate bound to a rational."""
        total = Fraction(0)
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                if v not in bindings:
                    raise UnboundIndeterminate(f"no value bound for {v.display()}")
                val *= Fraction(bindings[v]) ** e
            total += val
        return total

    def substitute_vars(self, mapping: dict) -> "Polynomial":
        """Rename indeterminates (value must be an Indeterminate)."""
        out: dict = {}
        for m, c in self.terms.items():
            nm: dict = {}
            for v, e in m:
                w = mapping.get(v, v)
                nm[w] = nm.get(w, 0) + e
            key = tuple(sorted(nm.items(), key=lambda p: p[0].sort_key))
            out[key] = out.get(key, Fraction(0)) + c
        return Polynomial(out)

    # --- normalization ---

    def content(self) -> Fraction:
        """Rational content carrying the sign of the leading coefficient."""
        if not self.terms:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.terms.values():
            num = int_gcd(num, c.numerator)
            den = den * c.denominator // int_gcd(den, c.denominator)
        cont = Fraction(num, den)
        _, lc = self.leading()
        return -cont if lc < 0 else cont

    def primitive(self) -> "Polynomial":
        if not self.terms:
            return self
        return self.scale(1 / self.content())

    def __repr__(self) -> str:
        return poly_text(self)


def _coerce(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Polynomial")


ZERO = Polynomial()
ONE = Polynomial.const(1)


def normalize_primitive(p: Polynomial) -> tuple:
    """Split p = content * primitive with a positive leading coefficient."""
    if p.is_zero():
        raise ZeroPolynomialError("zero polynomial has no primitive part")
    c = p.content()
    return p.scale(1 / c), c


def collect(p: Polynomial, vars_: set) -> dict:
    """Group terms by their sub-monomial over vars_.

    Returns {monomial over vars_: coefficient Polynomial over the rest}.
    """
    out: dict = {}
    for m, c in p.terms.items():
        inside = tuple((v, e) for v, e in m if v in vars_)
        outside = tuple((v, e) for v, e in m if v not in vars_)
        bucket = out.setdefault(inside, {})
        bucket[outside] = bucket.get(outside, Fraction(0)) + c
    return {m: Polynomial(t) for m, t in out.items() if any(t.values())}


# --- exact division and gcd ---

def exact_div(a: Polynomial, b: Polynomial) -> Polynomial:
    """a / b when b divides a exactly; raises ExactDivisionError otherwise."""
    if b.is_zero():
        raise ZeroPolynomialError("division by zero polynomial")
    if a.is_zero():
        return ZERO
    if b.is_constant():
        return a.scale(1 / b.constant_value())
    q: dict = {}
    r = a
    bm, bc = b.leading()
    while not r.is_zero():
        rm, rc = r.leading()
        m = mono_div(rm, bm)
        if m is None:
            raise ExactDivisionError("inexact polynomial division")
        c = rc / bc
        q[m] = q.get(m, Fraction(0)) + c
        r = r - Polynomial({m: c}) * b
    return Polynomial(q)


def _main_var(p: Polynomial) -> Indeterminate:
    return max(p.indeterminates(), key=lambda v: v.sort_key)


def _as_univariate(p: Polynomial, v: Indeterminate) -> dict:
    """View p as {degree in v: Polynomial free of v}."""
    out: dict = {}
    for m, c in p.terms.items():
        deg = 0
        rest = []
        for w, e in m:
            if w == v:
                deg = e
            else:
                rest.append((w, e))
        bucket = out.setdefault(deg, {})
        key = tuple(rest)
        bucket[key] = bucket.get(key, Fraction(0)) + c
    return {d: Polynomial(t) for d, t in out.items()}


def _from_univariate(coeffs: dict, v: Indeterminate) -> Polynomial:
    out = ZERO
    for d, c in coeffs.items():
        out = out + c * Polynomial.var(v, d)
    return out


def _rat_gcd(a: Fraction, b: Fraction) -> Fraction:
    if a == 0:
        return abs(b)
    if b == 0:
        return abs(a)
    return Fraction(int_gcd(a.numerator * b.denominator,
                            b.numerator * a.denominator),
                    a.denominator * b.denominator)


def _strip_rational(u: dict) -> dict:
    """Divide out the joint rational content; keeps PRS coefficients small."""
    c = Fraction(0)
    for p in u.values():
        c = _rat_gcd(c, p.content())
    if c == 0 or c == 1:
        return u
    inv = 1 / c
    return {d: p.scale(inv) for d, p in u.items()}


def _pseudo_rem(a: dict, b: dict) -> dict:
    """Pseudo-remainder of univariate-in-v polynomial coefficient maps."""
    db = max(b)
    lcb = b[db]
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        lcr = r[dr]
        nr: dict = {}
        for e, c in r.items():
            nr[e] = c * lcb
        for e, c in b.items():
            tgt = e + dr - db
            nr[tgt] = nr.get(tgt, ZERO) - lcr * c
        r = {e: c for e, c in nr.items() if not c.is_zero()}
    return r


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic-free gcd over the rationals: primitive, positive leading coeff.

    Constants are units, so any nonzero constant input gives gcd 1.
    """
    if a.is_zero():
        return b.primitive()
    if b.is_zero():
        return a.primitive()
    if a.is_constant() or b.is_constant():
        return ONE
    va = _main_var(a)
    vb = _main_var(b)
    if va != vb:
        # gcd divides both contents wrt the larger main variable
        v = va if va.sort_key > vb.sort_key else vb
        small, big = (b, a) if v == va else (a, b)
        cont = _coeff_gcd(_as_univariate(big, v))
        return poly_gcd(cont, small)
    v = va
    ua, ub = _as_univariate(a, v), _as_univariate(b, v)
    ca, cb = _coeff_gcd(ua), _coeff_gcd(ub)
    pa = _strip_rational({d: exact_div(c, ca) for d, c in ua.items()})
    pb = _strip_rational({d: exact_div(c, cb) for d, c in ub.items()})
    gc = poly_gcd(ca, cb)
    if max(pa) < max(pb):
        pa, pb = pb, pa
    while True:
        r = _pseudo_rem(pa, pb)
        if not r:
            g = _from_univariate(pb, v)
            break
        if max(r) == 0:
            g = ONE
            break
        r = _strip_rational(r)
        rc = _coeff_gcd(r)
        pa, pb = pb, {d: exact_div(c, rc) for d, c in r.items()}
    return (gc * g).primitive()


def _coeff_gcd(coeffs: dict) -> Polynomial:
    g = ZERO
    for c in coeffs.values():
        g = poly_gcd(g, c)
        if g == ONE:
            break
    return g


def poly_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.is_zero() or b.is_zero():
        return ZERO
    return exact_div(a * b, poly_gcd(a, b)).primitive()


class MonomialOrder:
    """Term order over a fixed variable sequence (largest variable first).

    Exponent tuples are aligned to the sequence.  Lex compares exponents
    left to right; degrevlex compares total degree, then breaks ties by the
    smallest variable with the larger exponent losing.
    """

    __slots__ = ("kind", "variables")

    def __init__(self, kind: str, variables: tuple):
        if kind not in ("lex", "degrevlex"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.variables = tuple(variables)

    @staticmethod
    def lex(variables) -> "MonomialOrder":
        return MonomialOrder("lex", tuple(variables))

    @staticmethod
    def degrevlex(variables) -> "MonomialOrder":
        return MonomialOrder("degrevlex", tuple(variables))

    def key(self):
        """Sort key on aligned exponent tuples (larger key, larger term)."""
        if self.kind == "lex":
            return tuple
        return lambda m: (sum(m), tuple(-e for e in reversed(m)))


# --- printing ---

def _frac_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def mono_text(m: Monomial, discrete: bool = False) -> str:
    if not m:
        return "1"
    parts = []
    for v, e in sorted(m, key=lambda p: p[0].sort_key):
        s = v.display(discrete)
        parts.append(s if e == 1 else f"{s}^{e}")
    return "*".join(parts)


def poly_text(p: Polynomial, discrete: bool = False) -> str:
    if p.is_zero():
        return "0"
    chunks = []
    for m, c in p.sorted_terms():
        neg = c < 0
        c = abs(c)
        if not m:
            body = _frac_text(c)
        elif c == 1:
            body = mono_text(m, discrete)
        else:
            body = f"{_frac_text(c)}*{mono_text(m, discrete)}"
        if not chunks:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(chunks)
