"""Identifiability classification from the exhaustive summary.

The solution set of pi_i(theta) = pi_i(theta_ref), i = 1..s, around a
generic reference point decides the verdict per parameter: a singleton
projection is Global, a finite projection is Local with the solution-count
bound, an infinite projection is NonIdentifiable.  The projections are read
off lex Groebner bases that eliminate all other parameters; the elimination
ideal in one parameter over a field is principal, so the reduced basis
contains at most one generator purely in that parameter.

Symbolic mode substitutes reference parameters (a, b, c, ...) and works
over the rational-function coefficient field; numeric mode draws distinct
random primes for theta_ref and repeats over several trials, aggregating by
strict majority.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (BudgetExceeded, DenominatorVanishesAtTheta,
                     LpvIdentError)
from .expr import Expression
from .groebner import (GroebnerBasis, MonomialOrder, gpoly_text,
                       groebner_basis, univariate_members)
from .indets import Indeterminate, Kind, Role, ref_parameter
from .iop import ExhaustiveSummary, IopSet
from .poly import Polynomial, normalize_primitive

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
    if theta_ref is None:
        ref = {p: ref_parameter(p.index) for p in params}
        for e in summary.elements:
            n_ref = e.num.substitute_vars(ref)
            d_ref = e.den.substitute_vars(ref)
            g = e.num * d_ref - n_ref * e.den
            if g.is_zero():
                continue
            g, _ = normalize_primitive(g)
            gens.append(g)
    else:
        for e in summary.elements:
            d_val = e.den.evaluate(theta_ref)
            if d_val == 0:
                raise DenominatorVanishesAtTheta(
                    "summary element denominator vanishes at theta_ref")
            n_val = e.num.evaluate(theta_ref)
            g = e.num.scale(d_val) - e.den.scale(n_val)
            if g.is_zero():
                continue
            g, _ = normalize_primitive(g)
            gens.append(g)
    return gens


def _classify_parameter(gens: list, params: list, target: Indeterminate,
                        theta_ref: dict | None,
                        pair_budget: int, degree_budget: int) -> tuple:
    """(ParamStatus, elimination polynomial text or None, GroebnerBasis)."""
    seq = [p for p in params if p != target] + [target]
    order = MonomialOrder.lex(seq)
    gb = groebner_basis(gens, order, pair_budget, degree_budget)
    uni = univariate_members(gb, target)
    uni = [g for g in uni if g.degree() >= 1]
    if not uni:
        return ParamStatus(NON_IDENTIFIABLE), None, gb
    g = min(uni, key=lambda u: u.degree())
    d = g.degree()
    if d == 1:
        _check_root(g, target, theta_ref)
        return ParamStatus(GLOBAL), gpoly_text(g), gb
    return ParamStatus(LOCAL, d), gpoly_text(g), gb


def _check_root(g, target: Indeterminate, theta_ref: dict | None):
    """A monic degree-1 elimination polynomial must vanish at theta_ref."""
    idx = g.order.variables.index(target)
    const = None
    for m, c in g.terms.items():
        if sum(m) == 0:
            const = c
    if const is None:
        return  # root is zero; theta_ref never contains zero
    root = -const
    if theta_ref is None:
        expected = Expression(Polynomial.var(ref_parameter(target.index)))
    else:
        expected = Expression(Polynomial.const(theta_ref[target]))
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
        theta_ref = None
        gens = None
        if mode == "numeric":
            for _ in range(20):
                cand = draw_theta_ref(params, rng)
                try:
                    gens = evaluate_summary(summary, params, cand)
                    theta_ref = cand
                    break
                except DenominatorVanishesAtTheta:
                    continue
            if gens is None:
                raise DenominatorVanishesAtTheta(
                    "could not draw a reference point off the denominator variety")
        else:
            gens = evaluate_summary(summary, params)

        trial_ev = {
            "trial": t,
            "theta_ref": ("symbolic" if theta_ref is None else
                          {p.base: str(v) for p, v in theta_ref.items()}),
            "generators": [repr(g) for g in gens],
        }
        statuses = {}
        elim = {}
        for p in params:
            try:
                st, poly_text_, gb = _classify_parameter(
                    gens, params, p, theta_ref, pair_budget, degree_budget)
            except BudgetExceeded as exc:
                st, poly_text_, gb = ParamStatus(UNDETERMINED), str(exc), None
            statuses[p.base] = st
            elim[p.base] = poly_text_
        # the last parameter is eliminated under lex(params): the trial's basis
        if gb is None:
            trial_ev["basis_error"] = poly_text_
        else:
            trial_ev["basis"] = gb.texts()
        trial_ev["elimination"] = elim
        trial_ev["statuses"] = {k: v.render() for k, v in statuses.items()}
        evidence.append(trial_ev)
        runs.append(statuses)

    per_param = {}
    for p in params:
        votes = [r[p.base] for r in runs]
        counts: dict = {}
        for v in votes:
            counts[v] = counts.get(v, 0) + 1
        best, best_n = max(counts.items(), key=lambda kv: kv[1])
        if best_n * 2 > len(votes):
            per_param[p.base] = best
        else:
            per_param[p.base] = ParamStatus(UNDETERMINED)
    return Verdict(model_status_of(list(per_param.values())), per_param,
                   "groebner", n_trials, evidence)


def jacobian_local_test(iop: IopSet, params: list, trials: int = 5,
                        seed: int = 0, points_per_trial: int = 5) -> Verdict:
    """One-sided local test: rank of d(psi)/d(theta) at random points.

    When there are fewer equations than parameters the set is augmented by
    time-differentiating (or shifting) the equations round-robin, lowest
    order first, using that the parameters are constant in time.  Full rank
    q certifies local identifiability; anything less is Undetermined.
    """
    q = len(params)
    eqs = list(iop.equations)
    augmented = False
    src = list(iop.equations)
    while len(eqs) < q:
        augmented = True
        nxt = []
        for e in src:
            nxt.append(e.shift() if iop.discrete else e.differentiate())
        for e in nxt:
            if len(eqs) < q:
                eqs.append(e)
        src = nxt

    jac = [[e.partial(p) for p in params] for e in eqs]
    vars_ = set()
    for e in eqs:
        vars_ |= e.indeterminates()
    vars_ = sorted(vars_, key=lambda v: v.sort_key)

    from .elimination import rank_rational
    rng = random.Random(seed)
    best = 0
    ranks = []
    for _ in range(trials):
        trial_best = 0
        for _ in range(points_per_trial):
            bind = {v: Fraction(rng.randint(1, 97), rng.randint(1, 13))
                    for v in vars_}
            rows = [[cell.evaluate(bind) for cell in row] for row in jac]
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
