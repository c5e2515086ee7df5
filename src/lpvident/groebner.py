"""Buchberger's algorithm in lex order over exponent tuples.

A GPoly maps exponent tuples, aligned with a variable sequence that lists
the largest variable first, to coefficients in an exact field.  Lex order
on such tuples is Python's own tuple order, so the leading term is
max(terms).  A coefficient is a number, an int or a Fraction whose
denominator is above 1 (as in `poly`), unless its term carries reference
parameters (symbolic mode); only then is it an Expression, a rational
function of those parameters, and one that arithmetic leaves constant
drops back to a number.  Pairs come from a heap keyed by their lcm,
computed once when the pair is made, so the smallest lcm is processed
first.  A pair's lcm is at least each of its two leading monomials, so an
input generator's pairs are made only once the smallest pending lcm
reaches its leading monomial; the pairs are popped in the same order as
from a heap of every pair.  The coprime-leading-term criterion discards
product pairs, and Buchberger's chain criterion (Cox, Little and O'Shea, Ideals, Varieties,
and Algorithms, ch. 2 section 10) skips a pair (i, j) whose lcm some third
leading term divides when neither (i, k) nor (j, k) is still pending.
Every generator is made monic when it joins the basis, so reduction and
S-polynomials scale by the reducee's own coefficients and never divide by
a leading one.  Reduction works in place on one term dict, and the result
is inter-reduced to the unique reduced basis with monic generators (Cox,
Little and O'Shea, ch. 2 section 7), so the order of the generators and of
the pairs only affects cost, and the count of pair reductions.  Pair and
degree budgets convert runaway computations into BudgetExceeded; the pair
budget counts the reductions performed, not the pairs skipped.

The loop stops early at the maximal ideal of a point c, the ideal of every
Global model, whose generators all vanish at the reference point.  On entry,
and whenever a new member's leading monomial is a single variable, it checks
whether every variable x_i leads some member; the first such members then
inter-reduce to x_i - c_i, which lie in the ideal, and if every generator
vanishes at c the ideal is exactly <x_i - c_i> (Cox, Little and O'Shea,
ch. 4): that is its reduced basis, returned with no further pair reduced.
A generator that does not vanish at c makes the ideal the unit ideal, which
the loop goes on to find.  The members added on the way lie in the ideal of
the generators, so only the generators are evaluated.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import add, sub

from .errors import BudgetExceeded
from .expr import Expression, expr_text, substitute_poly
from .indets import Indeterminate, Kind
from .poly import Polynomial, collect, exact_quotient


@dataclass
class GPoly:
    """Polynomial in the variables with int, Fraction or Expression
    coefficients."""
    terms: dict          # exponent tuple -> coefficient (nonzero)
    variables: tuple     # largest variable first

    def is_zero(self) -> bool:
        return not self.terms

    def leading(self) -> tuple:
        m = max(self.terms)
        return m, self.terms[m]

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def monic(self) -> "GPoly":
        if not self.terms:
            return self
        _, lc = self.leading()
        symbolic = isinstance(lc, Expression)
        return GPoly({m: _field(c / lc) if symbolic or isinstance(c, Expression)
                      else exact_quotient(c, lc)
                      for m, c in self.terms.items()}, self.variables)


def _field(c):
    """c as a canonical field element: an int, a Fraction with a
    denominator above 1, or a non-constant Expression."""
    if isinstance(c, Expression):
        return c.constant_value() if c.is_constant() else c
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _sub_scaled(terms: dict, g: GPoly, mono: tuple, coeff) -> None:
    """terms -= coeff * x^mono * g, in place."""
    for m, c in g.terms.items():
        m = tuple(map(add, m, mono))
        s = terms.get(m)
        s = -(coeff * c) if s is None else s - coeff * c
        if s:
            terms[m] = s if type(s) is int else _field(s)
        else:
            del terms[m]


def gpoly_from_polynomial(p: Polynomial, variables) -> GPoly:
    """Split a mixed polynomial into monomials in the variables and field
    coefficients.

    Indeterminates outside the variables (reference parameters) move into
    the coefficients.
    """
    variables = tuple(variables)
    terms: dict = {}
    for m, c in collect(p, set(variables)).items():
        bad = [v for cm in c.terms for v, _ in cm if v.kind is not Kind.REF_PARAMETER]
        if bad:
            raise ValueError(
                f"generator contains non-parameter indeterminate {bad[0].display()}")
        exps = dict(m)
        terms[tuple(exps.get(v, 0) for v in variables)] = (
            c.constant_value() if c.is_constant() else Expression(c))
    return GPoly(terms, variables)


def gpoly_text(g: GPoly) -> str:
    if g.is_zero():
        return "0"
    chunks = []
    for m, c in sorted(g.terms.items(), reverse=True):
        if not isinstance(c, Expression):
            c = Expression(c)
        mono = "*".join(
            (v.display() if e == 1 else f"{v.display()}^{e}")
            for v, e in zip(g.variables, m) if e)
        cs = expr_text(c)
        if not mono:
            body = cs if c.is_polynomial() and len(c.num.terms) <= 1 else f"({cs})"
        elif c == 1:
            body = mono
        elif c == -1:
            body = f"-{mono}"
        elif c.is_polynomial() and len(c.num.terms) == 1:
            body = f"{cs}*{mono}"
        else:
            body = f"({cs})*{mono}"
        if not chunks:
            chunks.append(body)
        else:
            if body.startswith("-"):
                chunks.append(f"- {body[1:]}")
            else:
                chunks.append(f"+ {body}")
    return " ".join(chunks)


def _divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def reduce_gpoly(f: GPoly, basis: list) -> GPoly:
    """Full normal form of f modulo basis (leading and tail reduction).

    The basis members must be monic: a term c*x^m then reduces by
    c*x^(m-gm)*g, with no division.
    """
    leads = [max(g.terms) for g in basis]
    work = dict(f.terms)
    remainder: dict = {}
    while work:
        m = max(work)
        for g, gm in zip(basis, leads):
            if _divides(gm, m):
                _sub_scaled(work, g, tuple(map(sub, m, gm)), work[m])
                break
        else:
            remainder[m] = work.pop(m)
    return GPoly(remainder, f.variables)


def s_polynomial(f: GPoly, g: GPoly) -> GPoly:
    """S-polynomial of two monic basis members: (L/lm f)*f - (L/lm g)*g,
    L the lcm of their leading monomials; no coefficient is divided."""
    fm, gm = max(f.terms), max(g.terms)
    l = _lcm(fm, gm)
    terms: dict = {}
    _sub_scaled(terms, f, tuple(map(sub, l, fm)), -1)
    _sub_scaled(terms, g, tuple(map(sub, l, gm)), 1)
    return GPoly(terms, f.variables)


@dataclass
class GroebnerBasis:
    generators: list      # reduced, monic, sorted by decreasing leading term
    variables: tuple      # lex order, largest variable first
    pair_reductions: int = 0

    def texts(self) -> list:
        return [gpoly_text(g) for g in self.generators]


def groebner_basis(generators: list, variables,
                   pair_budget: int = 20000, degree_budget: int = 60) -> GroebnerBasis:
    """Reduced lex Groebner basis of the ideal spanned by the generators.

    The variables are listed largest first; the generators are Polynomials
    in the variables and reference parameters.  Returns as soon as the
    ideal is known to be the maximal ideal of a point (`_point_basis`).
    Raises BudgetExceeded when a pair reduction beyond the first
    pair_budget is about to run, or when an intermediate degree outgrows
    degree_budget.
    """
    variables = tuple(variables)
    basis = [gp.monic() for gp in (gpoly_from_polynomial(g, variables)
                                   for g in generators) if not gp.is_zero()]
    if not basis:
        return GroebnerBasis([], variables)

    leads = [max(g.terms) for g in basis]
    point = _point_basis(basis, leads, generators)
    if point is not None:
        return GroebnerBasis(point, variables)
    # input generators join the pairs by increasing leading monomial; until
    # one joins, every pair it is part of counts as pending
    waiting = sorted(range(len(basis)), key=leads.__getitem__, reverse=True)
    joined: set = set()
    pairs: list = []
    pending: set = set()

    def join(k: int) -> None:
        for t in joined:
            pair = (min(t, k), max(t, k))
            heapq.heappush(pairs, (_lcm(leads[t], leads[k]), *pair))
            pending.add(pair)
        joined.add(k)

    def is_pending(a: int, b: int) -> bool:
        return (a not in joined or b not in joined
                or (min(a, b), max(a, b)) in pending)

    reductions = 0
    while True:
        while waiting and (not pairs or leads[waiting[-1]] <= pairs[0][0]):
            join(waiting.pop())
        if not pairs:
            break
        # normal selection: smallest lcm under the order
        lcm, i, j = heapq.heappop(pairs)
        pending.discard((i, j))
        mi, mj = leads[i], leads[j]
        if lcm == tuple(map(add, mi, mj)):
            continue  # coprime leading terms: S-polynomial reduces to zero
        if any(k != i and k != j and _divides(mk, lcm)
               and not is_pending(i, k) and not is_pending(j, k)
               for k, mk in enumerate(leads)):
            continue  # chain criterion: (i, k) and (k, j) already cover it
        if reductions >= pair_budget:
            raise BudgetExceeded(
                f"pair budget {pair_budget} exhausted in Buchberger loop")
        s = s_polynomial(basis[i], basis[j])
        reductions += 1
        r = reduce_gpoly(s, basis)
        if r.is_zero():
            continue
        if r.degree() > degree_budget:
            raise BudgetExceeded(
                f"degree budget {degree_budget} exceeded during reduction")
        k = len(basis)
        basis.append(r.monic())
        leads.append(max(r.terms))
        if sum(leads[k]) == 1:
            point = _point_basis(basis, leads, generators)
            if point is not None:
                return GroebnerBasis(point, variables, reductions)
        join(k)

    return GroebnerBasis(_inter_reduce(basis), variables, reductions)


def _point_basis(basis: list, leads: list, generators: list) -> list | None:
    """The reduced basis x_i - c_i of the maximal ideal at c, when it is
    the ideal of the generators; else None.

    leads holds the members' leading monomials.  Once every variable alone
    leads some member, the first such members inter-reduce to x_i - c_i,
    which lie in the ideal; the ideal is then the maximal ideal at c
    exactly when every generator vanishes at c.  Otherwise the ideal is the
    unit ideal, and the caller's pair loop finds it.  Any other choice of
    members gives the same c, since a proper ideal holds one x_i - c_i.
    """
    variables = basis[0].variables
    if len({m for m in leads if sum(m) == 1}) < len(variables):
        return None
    # inter-reduction keeps the first member per leading monomial and puts
    # x_1 - c_1 first, so c is in variable order
    reduced = _inter_reduce([g for g, m in zip(basis, leads) if sum(m) == 1])
    zero = (0,) * len(variables)
    c = {v: -g.terms.get(zero, 0) for v, g in zip(variables, reduced)}
    # a generator in the variables alone, at a point of numbers, is a number
    numbers = not any(isinstance(x, Expression) for x in c.values())
    if all(g.evaluate(c) == 0 if numbers and g.indeterminates() <= c.keys()
           else substitute_poly(g, c).is_zero() for g in generators):
        return reduced
    return None


def _inter_reduce(basis: list) -> list:
    """Minimal then fully reduced basis, monic, deterministic order.

    No other leading monomial of a minimal basis divides a member's, so
    reducing the member by the others keeps its monic leading term.
    """
    leads = [max(g.terms) for g in basis]
    # drop generators whose leading monomial is divisible by another's
    kept = [g for i, (g, mi) in enumerate(zip(basis, leads))
            if not any(j != i and _divides(mj, mi) and (mj != mi or j < i)
                       for j, mj in enumerate(leads))]
    return sorted((reduce_gpoly(g, kept[:i] + kept[i + 1:])
                   for i, g in enumerate(kept)),
                  key=lambda g: max(g.terms), reverse=True)


def univariate_members(basis: GroebnerBasis, var: Indeterminate) -> list:
    """Basis generators involving only the given variable."""
    idx = basis.variables.index(var)
    return [g for g in basis.generators
            if not any(any(m[:idx] + m[idx + 1:]) for m in g.terms)]
