"""Sparse multivariate polynomials over exact rationals.

A monomial is a tuple of (indeterminate, exponent) pairs with positive
exponents, sorted ascending by the canonical indeterminate order; the empty
tuple is 1.  Because both factors are sorted, a product of monomials is a
merge of the two tuples (matching interned indeterminates by identity)
and never needs a sort.  A polynomial maps monomials to nonzero exact
coefficients, each an int or a Fraction whose denominator is above 1, never
an integer-valued Fraction and never a float.  Python hashes and compares 3
and Fraction(3) alike, so the split changes no equality, hash or text; it
keeps the common integer case out of pure-Python Fraction arithmetic.

The public constructor, `const` and `scale` bring any exact value into that
form and drop zeros; ring arithmetic, whose coefficients are canonical by
construction, builds its results through the private `Polynomial._of`,
which trusts its dict.  Where a sum or product with a Fraction can come out
integral, the result goes back to an int in place, and every quotient of
coefficients goes through `exact_quotient`, since int / int is a float.  A
product of two multi-term polynomials writes each operand as integer
numerators over one common denominator (the lcm of its coefficient
denominators, 1 for ints alone), sums the products as ints and divides
only when that denominator is above 1.  It sums them under packed keys
(Monagan and Pearce's packed exponent vectors): each indeterminate of
either operand gets one bit field of width (top_a + top_b).bit_length(),
top the largest exponent of an operand, so the sum of two keys never
carries and equal sums are equal product monomials; each term is encoded
once, a key whose sum reaches zero is deleted as it goes, and `mono_mul`
runs once per surviving key, on a term pair that formed it.  When one
operand has one term, no two products merge and the coefficients
multiply directly, or are copied when that term's is 1.  Exact division
follows the same split: a one-term divisor divides each term by its
monomial, and a longer one runs long division on a single remainder dict
updated in place.  Evaluation at
rational values makes the same split: a one-term polynomial multiplies out,
a longer one computes the integer value of each term over one common
denominator (`term_values`) and makes one Fraction of their sum.  All
arithmetic is exact; there is no floating point anywhere.

The canonical monomial order is degree-reverse-lexicographic over the
canonical indeterminate order.  It fixes leading terms, printing order and
sign normalization; a monomial prints its factors in their stored order.  `primitive_parts` is the one scale normal
form: a list over its joint rational content, the first nonzero member
with a positive leading coefficient (`primitive`, the gcd's PRS and the
null-space rows all use it).

The gcd is one recursion (Brown's primitive PRS): past the constant and
monomial exits, both operands are viewed as polynomials in v, the largest
indeterminate of either one, an operand free of v as its own content; the
gcd of the contents recurses, the primitive parts run the PRS, and the
result is rebuilt with (v, d) appended to each coefficient monomial.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd as int_gcd, lcm
from operator import itemgetter

from .errors import (ExactDivisionError, UnboundIndeterminate,
                     ZeroPolynomialError)
from .indets import Indeterminate, Kind

Monomial = tuple  # tuple[tuple[Indeterminate, int], ...]

MONO_ONE: Monomial = ()

_exponent = itemgetter(1)   # of an (indeterminate, exponent) pair


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def add_terms_into(out: dict, terms: dict) -> dict:
    """Add a term dict into out in place, dropping sums that cancel."""
    for m, c in terms.items():
        if m in out:
            s = out[m] + c
            if s:
                out[m] = s if type(s) is int or s.denominator != 1 else s.numerator
            else:
                del out[m]
        else:
            out[m] = c
    return out


def exact_quotient(a, b):
    """a / b for exact coefficients: an int when b divides a, otherwise a
    Fraction, never a float (int / int is one in Python)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q if q.denominator != 1 else q.numerator


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Merge of two sorted monomials: the result is sorted with no resort."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, ea = a[i]
        vb, eb = b[j]
        if va is vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va.sort_key < vb.sort_key:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return tuple(out) + a[i:] + b[j:]


def mono_div(a: Monomial, b: Monomial) -> Monomial | None:
    """a / b, or None when b does not divide a.

    A merge of the two sorted tuples, like `mono_mul`: the quotient keeps
    a's order and needs no sort.
    """
    if not b:
        return a
    out = []
    j = 0
    nb = len(b)
    for va, ea in a:
        if j < nb:
            vb, eb = b[j]
            if vb is va:
                j += 1
                if ea < eb:
                    return None
                if ea > eb:
                    out.append((va, ea - eb))
                continue
        out.append((va, ea))
    # an indeterminate of b that a lacks stops j short of the end
    return tuple(out) if j == nb else None


def mono_key(m: Monomial) -> tuple:
    """Sort key of the canonical degrevlex order (larger key, larger term).

    Reverse-lex compares from the smallest indeterminate up, and the smaller
    exponent wins; monomials store ascending indeterminates, so negated
    exponents and natural tuple order do it.  Equal-degree monomials that
    agree on a prefix cannot end there, so tuple length never decides.
    """
    return (mono_degree(m), tuple((v.sort_key, -e) for v, e in m))


class Polynomial:
    """Immutable sparse polynomial with int or non-integral Fraction
    coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        t = {}
        if terms:
            for m, c in terms.items():
                if type(c) is not int:
                    c = _exact(c)
                if c:
                    t[m] = c
        object.__setattr__(self, "terms", t)

    @classmethod
    def _of(cls, terms: dict) -> "Polynomial":
        """Wrap a term dict whose coefficients are all nonzero and
        canonical: ints, or Fractions with a denominator above 1.

        No copy and no check: the caller hands over a dict it owns.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    # --- constructors ---

    @staticmethod
    def const(c) -> "Polynomial":
        c = _exact(c)
        return Polynomial._of({MONO_ONE: c} if c else {})

    @staticmethod
    def var(v: Indeterminate, exp: int = 1) -> "Polynomial":
        if exp == 0:
            return Polynomial.const(1)
        return Polynomial._of({((v, exp),): 1})

    # --- predicates ---

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and MONO_ONE in self.terms)

    def constant_value(self):
        """The constant term of a constant polynomial: an int, or a
        Fraction with a denominator above 1."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get(MONO_ONE, 0)

    # --- structure ---

    def indeterminates(self) -> set:
        return {v for m in self.terms for v, _ in m}

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
        return Polynomial._of(add_terms_into(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = _coerce(other)
        small, large = self.terms, other.terms
        if len(small) > len(large):
            small, large = large, small
        if len(small) <= 1:
            # monomial multiplication is injective: no two products merge
            if not small:
                return Polynomial._of({})
            ((m1, c1),) = small.items()
            if c1 == 1:
                return Polynomial._of({mono_mul(m1, m2): c2
                                       for m2, c2 in large.items()})
            out = {}
            for m2, c2 in large.items():
                c = c1 * c2
                out[mono_mul(m1, m2)] = (c if type(c) is int or c.denominator != 1
                                         else c.numerator)
            return Polynomial._of(out)
        # integer numerators over one common denominator per operand
        da, na = _over_common_denominator(self.terms)
        db, nb = _over_common_denominator(other.terms)
        # packed keys (see the module docstring); a multi-term operand
        # holds an indeterminate, so each max has an argument; the field
        # layout never reaches the result, whose terms come in the order of
        # the pair loop
        fa = dict.fromkeys(chain.from_iterable(self.terms))
        fb = dict.fromkeys(chain.from_iterable(other.terms))
        width = (max(map(_exponent, fa))
                 + max(map(_exponent, fb))).bit_length()
        unit: dict = {}
        code: dict = {}
        for ve in chain(fa, fb):
            v, e = ve
            if v not in unit:
                unit[v] = 1 << width * len(unit)
            code[ve] = e * unit[v]
        key = code.__getitem__
        inner = [(sum(map(key, m2)), m2, b) for m2, b in nb]
        acc: dict = {}
        first: dict = {}
        for m1, a in na:
            k1 = sum(map(key, m1))
            for k2, m2, b in inner:
                k = k1 + k2
                if k in acc:
                    s = acc[k] + a * b
                    if s:
                        acc[k] = s
                    else:
                        del acc[k]
                else:
                    acc[k] = a * b
                    first[k] = m1, m2
        d = da * db
        if d == 1:
            return Polynomial._of({mono_mul(*first[k]): c
                                   for k, c in acc.items()})
        return Polynomial._of({mono_mul(*first[k]): exact_quotient(c, d)
                               for k, c in acc.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial; use Expression")
        if n == 1:
            return self
        out = Polynomial.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def scale(self, c) -> "Polynomial":
        c = _exact(c)
        if not c:
            return Polynomial()
        out = {}
        for m, cc in self.terms.items():
            cc *= c
            out[m] = cc if type(cc) is int or cc.denominator != 1 else cc.numerator
        return Polynomial._of(out)

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
        """Time derivative: signals gain one order, parameters are constant.

        d(v^e) = e*v^(e-1)*w with w = v^(k+1) for v = v^(k); no key lies
        between v and w, so w goes in right after v's place, merged with a
        w already there, and the monomial needs no sort."""
        out: dict = {}
        for m, c in self.terms.items():
            for i, (v, e) in enumerate(m):
                if v.kind is not Kind.SIGNAL:
                    continue
                w = v.with_order(v.order + 1)
                head = m[:i] + ((v, e - 1),) if e > 1 else m[:i]
                rest = m[i + 1:]
                if rest and rest[0][0] is w:
                    nm = head + ((w, rest[0][1] + 1),) + rest[1:]
                else:
                    nm = head + ((w, 1),) + rest
                dc = c * e if e > 1 else c
                out[nm] = out[nm] + dc if nm in out else dc
        return Polynomial._of({
            m: c if type(c) is int or c.denominator != 1 else c.numerator
            for m, c in out.items() if c})

    def shift(self) -> "Polynomial":
        """Forward time shift: a ring homomorphism bumping signal orders.
        It keeps the canonical order within each monomial and maps distinct
        monomials apart, so each monomial maps in place, with no sort."""
        return Polynomial._of({
            tuple((v.with_order(v.order + 1) if v.kind is Kind.SIGNAL else v, e)
                  for v, e in m): c
            for m, c in self.terms.items()})

    def term_values(self, bindings: dict) -> tuple:
        """([integer value of each term], common denominator), terms in
        dict order, with every indeterminate bound to a rational.

        The bound values are written a_v / delta over the lcm delta of their
        denominators and the coefficients over the lcm L of theirs; a term
        of degree k is scaled by delta^(T - k), T the total degree, so every
        value is an int over the one denominator L * delta^T.  Each bound
        value is read once, an int or Fraction as it is and any other value
        through Fraction(), so float and str bindings are taken exactly too;
        each power a_v^e is computed once per call and shared by the terms
        that hold it.
        """
        bound: dict = {}
        for m in self.terms:
            for v, _ in m:
                if v not in bound:
                    if v not in bindings:
                        raise UnboundIndeterminate(
                            f"no value bound for {v.display()}")
                    b = bindings[v]
                    bound[v] = (b if type(b) is int or type(b) is Fraction
                                else Fraction(b))
        delta = lcm(*(b.denominator for b in bound.values()))
        a = {v: b.numerator * (delta // b.denominator)
             for v, b in bound.items()}
        den, nums = _over_common_denominator(self.terms)
        powers: dict = {}
        raw = []
        top = 0
        for m, val in nums:
            k = 0
            for ve in m:
                p = powers.get(ve)
                if p is None:
                    v, e = ve
                    p = powers[ve] = a[v] ** e
                val *= p
                k += ve[1]
            raw.append((val, k))
            if k > top:
                top = k
        scales = [delta ** (top - k) for k in range(top + 1)]
        values = [val * scales[k] for val, k in raw]
        return values, den * delta ** top

    def evaluate(self, bindings: dict) -> Fraction:
        """Exact value with every indeterminate bound to a rational.

        A one-term polynomial (a constant or a single model entry, about
        three quarters of all calls) multiplies out directly, with no common
        denominator to build; a longer one sums its `term_values` and makes
        one Fraction.
        """
        if len(self.terms) > 1:
            values, den = self.term_values(bindings)
            return Fraction(sum(values), den)
        if not self.terms:
            return Fraction(0)
        ((m, val),) = self.terms.items()
        for v, e in m:
            if v not in bindings:
                raise UnboundIndeterminate(f"no value bound for {v.display()}")
            b = bindings[v]
            val *= (b if type(b) is int or type(b) is Fraction
                    else Fraction(b)) ** e
        return val if type(val) is Fraction else Fraction(val)

    # --- normalization ---

    def content(self) -> Fraction:
        """Rational content carrying the sign of the leading coefficient."""
        cont = rational_content((self,))
        return -cont if cont and self.leading()[1] < 0 else cont

    def primitive(self) -> "Polynomial":
        return primitive_parts((self,))[0]

    def __repr__(self) -> str:
        return poly_text(self)


def _over_common_denominator(terms: dict) -> tuple:
    """(d, [(monomial, integer numerator)]) with terms = numerators / d,
    d the lcm of the coefficient denominators."""
    if set(map(type, terms.values())) <= {int}:   # one C-level pass
        return 1, list(terms.items())
    d = lcm(*(c.denominator for c in terms.values()))
    return d, [(m, c.numerator * (d // c.denominator))
               for m, c in terms.items()]


def rational_content(polys) -> Fraction:
    """Positive gcd of every coefficient of the polynomials; 0 for none.

    For reduced fractions it is the gcd of the numerators over the lcm of
    the denominators; over ints alone, one multi-argument gcd.
    """
    coeffs = [c for p in polys for c in p.terms.values()]
    if set(map(type, coeffs)) <= {int}:
        return Fraction(int_gcd(*coeffs))
    return Fraction(int_gcd(*(c.numerator for c in coeffs)),
                    lcm(*(c.denominator for c in coeffs)))


def primitive_parts(polys) -> list:
    """The polynomials divided by their joint rational content, signed so
    that the first nonzero one has a positive leading coefficient: integer
    coefficients with gcd 1.  All-zero input comes back unchanged.

    With content n/d and a coefficient a/b (b divides d), the quotient
    a*(d/b)/n is an int, so the division runs in ints alone."""
    polys = list(polys)
    c = rational_content(polys)
    if c and next(p for p in polys if p.terms).leading()[1] < 0:
        c = -c
    if c == 0 or c == 1:
        return polys
    n, d = c.numerator, c.denominator
    if d == 1:
        return [Polynomial._of({m: a // n for m, a in p.terms.items()})
                for p in polys]
    return [Polynomial._of({m: a.numerator * (d // a.denominator) // n
                            for m, a in p.terms.items()})
            for p in polys]


def _exact(c):
    """An exact value (int, Fraction, float or str) as a coefficient: an
    int, or a Fraction with a denominator above 1."""
    if type(c) is not int:
        c = Fraction(c)
        if c.denominator == 1:
            c = c.numerator
    return c


def _coerce(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Polynomial")


ZERO = Polynomial()
ONE = Polynomial.const(1)


def collect(p: Polynomial, vars_: set) -> dict:
    """Group terms by their sub-monomial over vars_.

    Returns {monomial over vars_: coefficient Polynomial over the rest}.
    """
    out: dict = {}
    for m, c in p.terms.items():
        inside = tuple((v, e) for v, e in m if v in vars_)
        outside = tuple((v, e) for v, e in m if v not in vars_)
        # (inside, outside) determines m, so no two terms meet in a bucket
        out.setdefault(inside, {})[outside] = c
    return {m: Polynomial._of(t) for m, t in out.items()}


# --- exact division and gcd ---

def exact_div(a: Polynomial, b: Polynomial) -> Polynomial:
    """a / b when b divides a exactly; raises ExactDivisionError otherwise.

    A one-term divisor, constants included, divides term by term
    (`mono_div`, injective, so no two quotient terms merge).  A longer
    divisor runs long division on one remainder dict that each quotient
    term updates in place.
    """
    if b.is_zero():
        raise ZeroPolynomialError("division by zero polynomial")
    if len(b.terms) == 1:
        ((bm, bc),) = b.terms.items()
        q: dict = {}
        for m, c in a.terms.items():
            qm = mono_div(m, bm)
            if qm is None:
                raise ExactDivisionError("inexact polynomial division")
            q[qm] = exact_quotient(c, bc)
        return Polynomial._of(q)
    bm, bc = b.leading()
    tail = [(m, c) for m, c in b.terms.items() if m != bm]
    q = {}
    r = dict(a.terms)
    while r:
        rm = max(r, key=mono_key)
        m = mono_div(rm, bm)
        if m is None:
            raise ExactDivisionError("inexact polynomial division")
        c = exact_quotient(r.pop(rm), bc)
        q[m] = c
        # the leading product cancels rm by construction; subtract the rest
        for tm, tc in tail:
            pm = mono_mul(m, tm)
            s = r.get(pm, 0) - c * tc
            if s:
                r[pm] = s if type(s) is int or s.denominator != 1 else s.numerator
            else:
                del r[pm]
    return Polynomial._of(q)


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


def poly_gcd(*polys: Polynomial) -> Polynomial:
    """Monic-free gcd over the rationals: primitive, positive leading coeff;
    zero when every input is zero.

    Constants are units, so any nonzero constant input gives gcd 1.  The
    fold runs from the input with the fewest terms and stops at 1: a
    one-term input makes it a monomial gcd at once, before the longest
    inputs reach the PRS.  The gcd is normalised, so the order does not
    change it.
    """
    nonzero = sorted((p for p in polys if p.terms), key=lambda p: len(p.terms))
    if len(nonzero) < 2:
        return nonzero[0].primitive() if nonzero else ZERO
    g = nonzero[0]
    for p in nonzero[1:]:
        g = _gcd2(g, p)
        if g == ONE:
            break
    return g


def _gcd2(a: Polynomial, b: Polynomial) -> Polynomial:
    """poly_gcd of two nonzero polynomials: dense recursive primitive PRS
    in v, the largest indeterminate of either operand."""
    if a.is_constant() or b.is_constant():
        return ONE
    if len(b.terms) == 1:
        a, b = b, a
    if len(a.terms) == 1:
        # a monomial's divisors are monomials: take the least exponents,
        # merging the two sorted tuples as `mono_mul` does
        (m,) = a.terms
        for t in b.terms:
            low, j, nt = [], 0, len(t)
            for v, e in m:
                key = v.sort_key
                while j < nt and t[j][0].sort_key < key:
                    j += 1
                if j == nt:
                    break
                if t[j][0] is v:
                    low.append((v, min(e, t[j][1])))
            m = tuple(low)
        return Polynomial._of({m: 1})
    v = max(a.indeterminates() | b.indeterminates(), key=lambda w: w.sort_key)
    # {degree in v: coefficient}; an operand that lacks v is {0: itself},
    # its own content
    ua, ub = ({(m[0][1] if m else 0): c for m, c in collect(p, {v}).items()}
              for p in (a, b))
    ca, cb = poly_gcd(*ua.values()), poly_gcd(*ub.values())
    pa = dict(zip(ua, primitive_parts(exact_div(c, ca) for c in ua.values())))
    pb = dict(zip(ub, primitive_parts(exact_div(c, cb) for c in ub.values())))
    gc = _gcd2(ca, cb)
    if max(pa) < max(pb):
        pa, pb = pb, pa
    while r := _pseudo_rem(pa, pb):
        r = dict(zip(r, primitive_parts(r.values())))
        rc = poly_gcd(*r.values())
        pa, pb = pb, {d: exact_div(c, rc) for d, c in r.items()}
    # v sorts after every indeterminate of its coefficients, so appending
    # (v, d) keeps each monomial canonical, and no two terms meet
    g = {m + ((v, d),) if d else m: c
         for d, p in pb.items() for m, c in p.terms.items()}
    return (gc * Polynomial._of(g)).primitive()


def poly_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.is_zero() or b.is_zero():
        return ZERO
    return (a * exact_div(b, poly_gcd(a, b))).primitive()


# --- printing ---

def _frac_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def mono_text(m: Monomial, discrete: bool = False) -> str:
    """The monomial in its stored, canonical order."""
    if not m:
        return "1"
    return "*".join(v.display(discrete) + (f"^{e}" if e != 1 else "")
                    for v, e in m)


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
