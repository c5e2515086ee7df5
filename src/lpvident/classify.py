"""Identifiability classification from the exhaustive summary.

The solution set of pi_i(theta) = pi_i(theta_ref), i = 1..s, around a
generic reference point decides the verdict per parameter: a singleton
projection is Global, a finite projection is Local with the solution-count
bound, an infinite projection is NonIdentifiable.  The projections are read
off lex Groebner bases that eliminate all other parameters; the elimination
ideal in one parameter over a field is principal, so the reduced basis
contains at most one generator purely in that parameter.

Each trial computes the lex(params) basis first.  A generator theta_i - c
of it proves theta_i = c on the whole solution set, so it generates the
elimination ideal in theta_i: theta_i is Global, read off that basis.  Only
the parameters it leaves unfixed (besides the last, which it eliminates
already) get a basis of their own, with the parameter last.

Symbolic mode substitutes reference parameters (a, b, c, ...) and works
over the rational-function coefficient field; numeric mode draws distinct
random primes for theta_ref and repeats over several trials, aggregating by
strict majority.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .elimination import rank_rational
from .errors import (BudgetExceeded, DenominatorVanishesAtTheta,
                     LpvIdentError)
from .expr import Expression
from .groebner import gpoly_text, groebner_basis, univariate_members
from .indets import Indeterminate, ref_parameter
from .iop import ExhaustiveSummary, IopSet
from .poly import Polynomial

GLOBAL = "Global"
LOCAL = "Local"
NON_IDENTIFIABLE = "NonIdentifiable"
UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class ParamStatus:
    status: str
    degree: int | None = None   # solution-count bound for Local

    def render(self) -> str:
        if self.status == LOCAL and self.degree is not None:
            return f"Local({self.degree})"
        return self.status


@dataclass
class Verdict:
    model_status: str
    per_param: dict              # parameter name -> ParamStatus
    method: str                  # "groebner" | "jacobian"
    trials: int
    evidence: list = field(default_factory=list)


def model_status_of(statuses: list) -> str:
    if any(s.status == UNDETERMINED for s in statuses):
        return UNDETERMINED
    if any(s.status == NON_IDENTIFIABLE for s in statuses):
        return NON_IDENTIFIABLE
    if all(s.status == GLOBAL for s in statuses):
        return GLOBAL
    return LOCAL


def _primes(count: int) -> list:
    out = []
    cand = 2
    while len(out) < count:
        if all(cand % p for p in out):
            out.append(cand)
        cand += 1
    return out


_PRIME_POOL = _primes(64)


def draw_theta_ref(params: list, rng: random.Random) -> dict:
    """Distinct random primes, one per parameter."""
    q = len(params)
    pool = _PRIME_POOL if q <= len(_PRIME_POOL) else _primes(2 * q)
    picks = rng.sample(pool, q)
    return {p: Fraction(v) for p, v in zip(params, picks)}


def evaluate_summary(summary: ExhaustiveSummary, params: list,
                     theta_ref: dict | None = None) -> list:
    """Difference generators pi(theta) - pi(theta_ref), denominators cleared.

    With theta_ref omitted the reference point is symbolic: parameter j maps
    to the reference parameter with the same index.  With theta_ref given
    (parameter -> Fraction) the generators are rational-coefficient
    polynomials; a vanishing element denominator raises
    DenominatorVanishesAtTheta so the caller can redraw.
    """
    gens = []
    ref = {p: ref_parameter(p.index) for p in params}
    for e in summary.elements:
        if theta_ref is None:
            # theta_j -> a_j keeps each monomial's order (same index) and
            # merges no terms (one-to-one), so the term dicts rename in place
            n_ref, d_ref = (Polynomial._of({tuple((ref[v], k) for v, k in m): c
                                            for m, c in p.terms.items()})
                            for p in (e.num, e.den))
        else:
            d_ref = Polynomial.const(e.den.evaluate(theta_ref))
            if d_ref.is_zero():
                raise DenominatorVanishesAtTheta(
                    "summary element denominator vanishes at theta_ref")
            n_ref = Polynomial.const(e.num.evaluate(theta_ref))
        g = e.num * d_ref - n_ref * e.den
        if g.is_zero():
            continue
        gens.append(g.primitive())
    return gens


def _elimination_member(basis, target: Indeterminate):
    """The one basis generator of positive degree in target alone, or None."""
    return next((g for g in univariate_members(basis, target)
                 if g.degree() >= 1), None)


def _classify_parameter(gens: list, params: list, target: Indeterminate,
                        full, theta_ref: dict | None,
                        pair_budget: int, degree_budget: int) -> tuple:
    """(ParamStatus, elimination polynomial text or None).

    The verdict is read off the trial's lex(params) basis full when target
    is last in it or fixed by it (a generator target - c); otherwise off
    target's own basis.
    """
    g = None if full is None else _elimination_member(full, target)
    if full is None or (target != params[-1]
                        and (g is None or g.degree() > 1)):
        seq = [p for p in params if p != target] + [target]
        g = _elimination_member(
            groebner_basis(gens, seq, pair_budget, degree_budget), target)
    if g is None:
        return ParamStatus(NON_IDENTIFIABLE), None
    d = g.degree()
    if d == 1:
        _check_root(g, target, theta_ref)
        return ParamStatus(GLOBAL), gpoly_text(g)
    return ParamStatus(LOCAL, d), gpoly_text(g)


def _check_root(g, target: Indeterminate, theta_ref: dict | None):
    """A monic degree-1 elimination polynomial must vanish at theta_ref.

    A missing constant term is a root of 0, which theta_ref never holds.
    """
    root = -g.terms.get((0,) * len(g.variables), 0)
    if theta_ref is None:
        expected = Expression.var(ref_parameter(target.index))
    else:
        expected = theta_ref[target]
    if root != expected:
        raise LpvIdentError(
            f"inconsistent elimination ideal: root {root} != reference point")


def classify(summary: ExhaustiveSummary, params: list, mode: str = "numeric",
             trials: int = 5, seed: int = 0, pair_budget: int = 20000,
             degree_budget: int = 60) -> Verdict:
    """Groebner-based verdict over one symbolic or several numeric trials."""
    if mode not in ("numeric", "symbolic"):
        raise ValueError(f"unknown mode {mode!r}")
    runs = []
    evidence = []
    n_trials = 1 if mode == "symbolic" else trials
    rng = random.Random(seed)
    for t in range(n_trials):
        if mode == "numeric":
            for _ in range(20):
                theta_ref = draw_theta_ref(params, rng)
                try:
                    gens = evaluate_summary(summary, params, theta_ref)
                    break
                except DenominatorVanishesAtTheta:
                    pass
            else:
                raise DenominatorVanishesAtTheta(
                    "could not draw a reference point off the denominator variety")
        else:
            theta_ref = None
            gens = evaluate_summary(summary, params)

        trial_ev = {
            "trial": t,
            "theta_ref": ("symbolic" if theta_ref is None else
                          {p.base: str(v) for p, v in theta_ref.items()}),
            "generators": [repr(g) for g in gens],
        }
        # lex(params) first: the parameters it fixes need no basis of their own
        try:
            full = groebner_basis(gens, params, pair_budget, degree_budget)
            trial_ev["basis"] = full.texts()
        except BudgetExceeded as exc:
            full = None
            trial_ev["basis_error"] = str(exc)
        statuses = {}
        elim = {}
        for p in params:
            if full is None and p == params[-1]:
                # its own basis is lex(params), which already ran out
                st, poly_text_ = (ParamStatus(UNDETERMINED),
                                  trial_ev["basis_error"])
            else:
                try:
                    st, poly_text_ = _classify_parameter(
                        gens, params, p, full, theta_ref, pair_budget,
                        degree_budget)
                except BudgetExceeded as exc:
                    st, poly_text_ = ParamStatus(UNDETERMINED), str(exc)
            statuses[p.base] = st
            elim[p.base] = poly_text_
        trial_ev["elimination"] = elim
        trial_ev["statuses"] = {k: v.render() for k, v in statuses.items()}
        evidence.append(trial_ev)
        runs.append(statuses)

    per_param = {}
    for p in params:
        [(best, votes)] = Counter(r[p.base] for r in runs).most_common(1)
        per_param[p.base] = (best if 2 * votes > len(runs)
                             else ParamStatus(UNDETERMINED))
    return Verdict(model_status_of(list(per_param.values())), per_param,
                   "groebner", n_trials, evidence)


POINTS_PER_TRIAL = 5


def jacobian_local_test(iop: IopSet, params: list, trials: int = 5,
                        seed: int = 0) -> Verdict:
    """One-sided local test: rank of d(psi)/d(theta) at random points.

    When fewer equations hold a parameter than there are parameters, the
    set is augmented by time-differentiating (or shifting) those equations
    round-robin, lowest order first, using that the parameters are constant
    in time.  A derived equation that has lost every parameter is dropped,
    and augmentation stops when none is left.  Full rank q certifies local
    identifiability; anything less is Undetermined.

    At each point the rank is taken of J diag(theta), each row scaled by its
    equation's common denominator (`Polynomial.term_values`): row i holds
    sum_m e_j(m) value(m) in column j, e_j(m) the exponent of theta_j in
    term m, one pass over the terms and no partial derivatives.  Every
    drawn theta_j is at least 1/13 and every common denominator is nonzero,
    so both scalings are nonsingular and J diag(theta) has J's rank.  The
    values drawn at one point are distinct: a repeat moves up by 1 until new.
    """
    q = len(params)
    if q and not iop.equations:
        raise ValueError("no equations to augment to the parameter count")
    theta = set(params)
    eqs = list(iop.equations)
    src = [e for e in eqs if not theta.isdisjoint(e.indeterminates())]
    need = q - len(src)
    while src and need > 0:
        src = [d for d in (e.shift() if iop.discrete else e.differentiate()
                           for e in src)
               if not theta.isdisjoint(d.indeterminates())]
        eqs += src[:need]
        need -= len(src[:need])
    augmented = len(eqs) > len(iop.equations)

    col = {p: j for j, p in enumerate(params)}
    # per equation: the parameter exponents (column, e) of each term
    layout = [[[(col[v], e) for v, e in m if v in col] for m in eq.terms]
              for eq in eqs]
    vars_ = set()
    for e in eqs:
        vars_ |= e.indeterminates()
    vars_ = sorted(vars_, key=lambda v: v.sort_key)

    rng = random.Random(seed)
    best = 0
    ranks = []
    for _ in range(trials):
        trial_best = 0
        for _ in range(POINTS_PER_TRIAL):
            bind, drawn = {}, set()
            for v in vars_:
                x = Fraction(rng.randint(1, 97), rng.randint(1, 13))
                while x in drawn:
                    x += 1
                drawn.add(x)
                bind[v] = x
            rows = []
            for eq, terms in zip(eqs, layout):
                row = [0] * q
                values, _ = eq.term_values(bind)
                for val, exps in zip(values, terms):
                    for j, e in exps:
                        row[j] += e * val
                rows.append(row)
            trial_best = max(trial_best, rank_rational(rows))
            if trial_best == q:
                break
        ranks.append(trial_best)
        best = max(best, trial_best)
    status = ParamStatus(LOCAL) if best == q else ParamStatus(UNDETERMINED)
    per_param = {p.base: status for p in params}
    evidence = [{"ranks": ranks, "q": q, "max_rank": best,
                 "equations": len(eqs), "augmented": augmented}]
    return Verdict(LOCAL if best == q else UNDETERMINED, per_param,
                   "jacobian", trials, evidence)
