"""Buchberger's algorithm over a coefficient field.

Generators are polynomials in the model parameters whose coefficients live
in an exact field: the rationals in numeric mode, rational functions of the
reference parameters in symbolic mode.  Both are Expression values, so the
same code serves both.  Pairs are processed smallest lcm first, the
coprime-leading-term criterion discards product pairs, and the result is
inter-reduced to the unique reduced basis with monic generators.  Pair and
degree budgets convert runaway computations into BudgetExceeded.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetExceeded
from .expr import E_ONE, Expression, expr_text
from .indets import Indeterminate, Kind
from .poly import MonomialOrder, Polynomial


@dataclass
class GPoly:
    """Polynomial in the order's variables with Expression coefficients."""
    terms: dict          # exponent tuple -> Expression (nonzero)
    order: MonomialOrder

    def is_zero(self) -> bool:
        return not self.terms

    def leading(self) -> tuple:
        m = max(self.terms, key=self.order.key())
        return m, self.terms[m]

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def monic(self) -> "GPoly":
        if not self.terms:
            return self
        _, lc = self.leading()
        return GPoly({m: c / lc for m, c in self.terms.items()}, self.order)

    def __eq__(self, other) -> bool:
        return isinstance(other, GPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


def _add_term(terms: dict, m: tuple, c: Expression):
    s = terms.get(m)
    s = c if s is None else s + c
    if s.is_zero():
        terms.pop(m, None)
    else:
        terms[m] = s


def gp_sub_scaled(a: GPoly, b: GPoly, mono: tuple, coeff: Expression) -> GPoly:
    """a - coeff * x^mono * b."""
    terms = dict(a.terms)
    for m, c in b.terms.items():
        shifted = tuple(x + y for x, y in zip(m, mono))
        _add_term(terms, shifted, -(coeff * c))
    return GPoly(terms, a.order)


def gpoly_from_polynomial(p: Polynomial, order: MonomialOrder) -> GPoly:
    """Split a mixed polynomial into order-variables vs field coefficients.

    Indeterminates outside the order's variables (reference parameters)
    move into the coefficients.
    """
    pos = {v: i for i, v in enumerate(order.variables)}
    terms: dict = {}
    for m, c in p.terms.items():
        exps = [0] * len(order.variables)
        rest = []
        for v, e in m:
            if v in pos:
                exps[pos[v]] = e
            else:
                if v.kind is not Kind.REF_PARAMETER:
                    raise ValueError(
                        f"generator contains non-parameter indeterminate {v.display()}")
                rest.append((v, e))
        coeff = Expression(Polynomial({tuple(rest): c}))
        _add_term(terms, tuple(exps), coeff)
    return GPoly(terms, order)


def gpoly_text(g: GPoly) -> str:
    if g.is_zero():
        return "0"
    items = sorted(g.terms.items(), key=lambda t: g.order.key()(t[0]), reverse=True)
    chunks = []
    for m, c in items:
        mono = "*".join(
            (v.display() if e == 1 else f"{v.display()}^{e}")
            for v, e in zip(g.order.variables, m) if e)
        cs = expr_text(c)
        if not mono:
            body = cs if c.is_polynomial() and len(c.num.terms) <= 1 else f"({cs})"
        elif c == E_ONE:
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
    """Full normal form of f modulo basis (leading and tail reduction)."""
    order = f.order
    remainder: dict = {}
    work = GPoly(dict(f.terms), order)
    while not work.is_zero():
        m, c = work.leading()
        reducer = None
        for g in basis:
            gm, _ = g.leading()
            if _divides(gm, m):
                reducer = g
                break
        if reducer is None:
            _add_term(remainder, m, c)
            work = GPoly({mm: cc for mm, cc in work.terms.items() if mm != m}, order)
            continue
        gm, gc = reducer.leading()
        quot = tuple(x - y for x, y in zip(m, gm))
        work = gp_sub_scaled(work, reducer, quot, c / gc)
    return GPoly(remainder, order)


def s_polynomial(f: GPoly, g: GPoly) -> GPoly:
    fm, fc = f.leading()
    gm, gc = g.leading()
    l = _lcm(fm, gm)
    lhs = gp_sub_scaled(GPoly({}, f.order), f,
                        tuple(x - y for x, y in zip(l, fm)), -(E_ONE / fc))
    return gp_sub_scaled(lhs, g, tuple(x - y for x, y in zip(l, gm)), E_ONE / gc)


@dataclass
class GroebnerBasis:
    generators: list      # reduced, monic, sorted by decreasing leading term
    order: MonomialOrder
    pair_reductions: int = 0

    def texts(self) -> list:
        return [gpoly_text(g) for g in self.generators]


def groebner_basis(generators: list, order: MonomialOrder,
                   pair_budget: int = 20000, degree_budget: int = 60) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal spanned by the generators.

    Accepts Polynomial (mixed parameter/reference indeterminates) or GPoly
    inputs.  Raises BudgetExceeded when the pair queue or any intermediate
    degree outgrows the budgets.
    """
    gens = []
    for g in generators:
        gp = g if isinstance(g, GPoly) else gpoly_from_polynomial(g, order)
        if not gp.is_zero():
            gens.append(gp.monic())
    if not gens:
        return GroebnerBasis([], order)

    basis = list(gens)
    key = order.key()
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    reductions = 0
    while pairs:
        if reductions > pair_budget:
            raise BudgetExceeded(
                f"pair budget {pair_budget} exhausted in Buchberger loop")
        # normal selection: smallest lcm under the order
        i, j = min(pairs, key=lambda p: (key(_lcm(basis[p[0]].leading()[0],
                                                  basis[p[1]].leading()[0])), p))
        pairs.discard((i, j))
        fi, fj = basis[i], basis[j]
        mi, mj = fi.leading()[0], fj.leading()[0]
        if _lcm(mi, mj) == tuple(a + b for a, b in zip(mi, mj)):
            continue  # coprime leading terms: S-polynomial reduces to zero
        s = s_polynomial(fi, fj)
        reductions += 1
        r = reduce_gpoly(s, basis)
        if r.is_zero():
            continue
        if r.degree() > degree_budget:
            raise BudgetExceeded(
                f"degree budget {degree_budget} exceeded during reduction")
        r = r.monic()
        k = len(basis)
        basis.append(r)
        pairs |= {(t, k) for t in range(k)}

    reduced = _inter_reduce(basis)
    return GroebnerBasis(reduced, order, reductions)


def _inter_reduce(basis: list) -> list:
    """Minimal then fully reduced basis, monic, deterministic order."""
    key = basis[0].order.key() if basis else None
    # drop generators whose leading monomial is divisible by another's
    kept = []
    leads = [g.leading()[0] for g in basis]
    for i, g in enumerate(basis):
        mi = leads[i]
        if any(j != i and _divides(leads[j], mi)
               and (leads[j] != mi or j < i) for j in range(len(basis))):
            continue
        kept.append(g)
    out = []
    for i, g in enumerate(kept):
        others = [h for j, h in enumerate(kept) if j != i]
        r = reduce_gpoly(g, others) if others else g
        if not r.is_zero():
            out.append(r.monic())
    out.sort(key=lambda g: key(g.leading()[0]), reverse=True)
    return out


def is_groebner(basis: list) -> bool:
    """Every S-polynomial of basis members reduces to zero."""
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = s_polynomial(basis[i], basis[j])
            if not reduce_gpoly(s, basis).is_zero():
                return False
    return True


def univariate_members(basis: GroebnerBasis, var: Indeterminate) -> list:
    """Basis generators involving only the given order variable."""
    idx = basis.order.variables.index(var)
    out = []
    for g in basis.generators:
        if all(all(e == 0 for k, e in enumerate(m) if k != idx)
               for m in g.terms):
            out.append(g)
    return out
