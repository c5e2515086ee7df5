"""Verdicts from the exhaustive summary: Groebner and Jacobian engines."""

import importlib
import random
import signal
from fractions import Fraction

import pytest

from conftest import (chain_model, fraction_rank, mono_of, random_models,
                      signal_models)
from lpvident import elimination
from lpvident.classify import (GLOBAL, LOCAL, NON_IDENTIFIABLE, UNDETERMINED,
                               ParamStatus, classify, draw_theta_ref,
                               evaluate_summary, jacobian_local_test,
                               model_status_of)
from lpvident.elimination import left_nullspace
from lpvident.errors import (BudgetExceeded, DenominatorVanishesAtTheta,
                             EmptyNullspace)
from lpvident.expr import Expression
from lpvident.groebner import (gpoly_text, groebner_basis,
                               univariate_members)
from lpvident.iop import ExhaustiveSummary, IopSet, extract_summary, form_iop
from lpvident.indets import Role, parameter
from lpvident.indets import signal as signal_var
from lpvident.model import parse_model
from lpvident.poly import Polynomial, poly_text
from lpvident.stacking import build_stack


def _summary(model, w=2):
    s = build_stack(model, w)
    iop = form_iop(s, left_nullspace(s.O))
    return iop, extract_summary(iop), list(model.params())


def _statuses(verdict):
    return {k: v.render() for k, v in verdict.per_param.items()}


GOLDEN_STATUSES = {
    "product_coupling": ("NonIdentifiable", {"theta1": "Global",
                                             "theta2": "NonIdentifiable",
                                             "theta3": "NonIdentifiable"}),
    "shared_gain": ("Local", {"theta1": "Global", "theta2": "Local(2)",
                              "theta3": "Global"}),
    "air_handling_unit": ("Global", {f"theta{i}": "Global"
                                     for i in range(1, 5)}),
    "henon": ("NonIdentifiable", {"theta1": "Global",
                                  "theta2": "NonIdentifiable",
                                  "theta3": "NonIdentifiable",
                                  "theta4": "NonIdentifiable"}),
    "burgers_discretized": ("Global", {"theta1": "Global",
                                       "theta2": "Global"}),
}


def test_single_parameter_summary_is_global():
    from lpvident.indets import parameter
    t = parameter("theta1", 1)
    summ = ExhaustiveSummary([Expression(Polynomial.var(t))])
    for mode in ("symbolic", "numeric"):
        v = classify(summ, [t], mode=mode)
        assert v.model_status == GLOBAL
        assert v.per_param["theta1"].status == GLOBAL


@pytest.mark.parametrize("mode", ["symbolic", "numeric"])
def test_golden_verdicts(goldens, mode):
    for name, model in goldens.items():
        _, summ, params = _summary(model)
        v = classify(summ, params, mode=mode)
        want_model, want_params = GOLDEN_STATUSES[name]
        assert v.model_status == want_model, name
        assert _statuses(v) == want_params, name
        assert v.method == "groebner"
        assert v.trials == (1 if mode == "symbolic" else 5)


def test_local_degree_bound(shared_gain):
    _, summ, params = _summary(shared_gain)
    v = classify(summ, params, mode="symbolic")
    st = v.per_param["theta2"]
    assert st.status == LOCAL and st.degree == 2
    assert st.render() == "Local(2)"


def test_evidence_records_bases(shared_gain):
    _, summ, params = _summary(shared_gain)
    v = classify(summ, params, mode="symbolic")
    trial = v.evidence[0]
    assert trial["theta_ref"] == "symbolic"
    assert trial["basis"] == ["theta1 - a", "theta2^2 - b^2", "theta3 - c"]
    assert trial["statuses"] == {"theta1": "Global", "theta2": "Local(2)",
                                 "theta3": "Global"}
    assert set(trial["elimination"]) == {"theta1", "theta2", "theta3"}
    assert trial["elimination"]["theta2"] == "theta2^2 - b^2"


def _trial_generators(summ, params, trial):
    """The generators a recorded trial was classified from."""
    if trial["theta_ref"] == "symbolic":
        return evaluate_summary(summ, params)
    ref = {p: Fraction(trial["theta_ref"][p.base]) for p in params}
    return evaluate_summary(summ, params, ref)


# per trial: lex(params) first, then the parameters its basis leaves unfixed
BASIS_LAST_VARIABLES = {"air_handling_unit": ["theta4"],
                        "shared_gain": ["theta3", "theta2"]}


@pytest.mark.parametrize("mode", ["symbolic", "numeric"])
def test_one_basis_per_trial_plus_unfixed_parameters(goldens, mode,
                                                     monkeypatch):
    # the package re-exports the function classify under the module's name
    classify_mod = importlib.import_module("lpvident.classify")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return groebner_basis(*args, **kwargs)

    monkeypatch.setattr(classify_mod, "groebner_basis", counted)
    for name, last in BASIS_LAST_VARIABLES.items():
        _, summ, params = _summary(goldens[name])
        calls.clear()
        v = classify(summ, params, mode=mode, trials=3)
        assert [seq[-1].base for seq in calls] == last * v.trials, name
        assert all(list(seq) == params for seq in calls[::len(last)]), name
        for trial in v.evidence:
            # the trial's basis is the lex(params) basis of its generators
            full = groebner_basis(_trial_generators(summ, params, trial),
                                  params)
            assert trial["basis"] == full.texts(), name
            assert "basis_error" not in trial


def _per_parameter_answer(gens, params):
    """Statuses and elimination texts from one basis per parameter, each
    with that parameter last: the answer classify must reproduce."""
    statuses, elim = {}, {}
    for p in params:
        gb = groebner_basis(gens, [v for v in params if v != p] + [p])
        uni = [g for g in univariate_members(gb, p) if g.degree() >= 1]
        if not uni:
            statuses[p.base], elim[p.base] = "NonIdentifiable", None
            continue
        g = min(uni, key=lambda u: u.degree())
        statuses[p.base] = ("Global" if g.degree() == 1
                            else f"Local({g.degree()})")
        elim[p.base] = gpoly_text(g)
    return statuses, elim


CHAIN3_DISCRETE = (
    "time: discrete\nstates: x1, x2, x3\ninputs: u\noutputs: y\n"
    "params: theta1, theta2, theta3, theta4, theta5\n"
    "A: [theta1*u, theta4, 0; 1, theta2*u, theta5; 0, 1, theta3*u]\n"
    "B: [1; 0; 0]\nC: [1, 0, 0]\n")


def _coupled_local_case():
    # Pi = {theta1 - theta2, theta2^2}: both parameters are Local(2), yet
    # lex(params) holds no member in theta1 alone, so theta1 needs its own
    t1, t2 = parameter("theta1", 1), parameter("theta2", 2)
    p1, p2 = Polynomial.var(t1), Polynomial.var(t2)
    summ = ExhaustiveSummary([Expression(p1 - p2), Expression(p2 * p2)])
    return "coupled_local", summ, [t1, t2]


@pytest.mark.parametrize("mode", ["symbolic", "numeric"])
def test_verdicts_match_per_parameter_bases(goldens, mode):
    cases = [(name, *_summary(model)[1:]) for name, model in goldens.items()]
    cases.append(("chain3", *_summary(parse_model(CHAIN3_DISCRETE), 4)[1:]))
    cases.append(_coupled_local_case())
    for name, summ, params in cases:
        v = classify(summ, params, mode=mode, trials=3)
        for trial in v.evidence:
            gens = _trial_generators(summ, params, trial)
            statuses, elim = _per_parameter_answer(gens, params)
            assert trial["statuses"] == statuses, name
            assert trial["elimination"] == elim, name


def test_fixed_parameters_never_run_out_of_budget(goldens, monkeypatch):
    # every order but lex(params) overruns: a parameter that basis fixes is
    # still Global, and only an unfixed one turns Undetermined
    classify_mod = importlib.import_module("lpvident.classify")
    message = "pair budget 1 exhausted in Buchberger loop"

    def lex_params_only(gens, seq, *args):
        if list(seq) != params:
            raise BudgetExceeded(message)
        return groebner_basis(gens, seq, *args)

    monkeypatch.setattr(classify_mod, "groebner_basis", lex_params_only)
    _, summ, params = _summary(goldens["air_handling_unit"])
    for mode in ("symbolic", "numeric"):
        v = classify(summ, params, mode=mode)
        assert set(_statuses(v).values()) == {"Global"}
        assert all("basis_error" not in t for t in v.evidence)
    _, summ, params = _summary(goldens["shared_gain"])
    for mode in ("symbolic", "numeric"):
        v = classify(summ, params, mode=mode)
        assert _statuses(v) == {"theta1": "Global", "theta2": "Undetermined",
                                "theta3": "Global"}
        for trial in v.evidence:
            assert trial["elimination"]["theta2"] == message
            assert "basis_error" not in trial


def test_evaluate_summary_symbolic_differences(shared_gain):
    _, summ, params = _summary(shared_gain)
    gens = evaluate_summary(summ, params)
    assert [poly_text(g) for g in gens] == [
        "theta3 - theta1 - c + a",
        "theta2^2 - b^2",
        "theta3 - 2*theta1 - c + 2*a",
        "theta1*theta3 - a*c",
    ]


def test_evaluate_summary_at_explicit_point(air_handling_unit):
    _, summ, params = _summary(air_handling_unit)
    ref = {p: Fraction(v) for p, v in zip(params, (1, 2, 3, 5))}
    gens = evaluate_summary(summ, params, ref)
    assert [poly_text(g) for g in gens] == [
        "theta3 - 3",
        "theta1 - 1",
        "theta4 + theta2 - 7",
        "theta1*theta3 - 3",
        "theta2*theta3 - 6",
        "theta1*theta4 - 5",
    ]


def test_numeric_mode_is_seed_stable(shared_gain):
    _, summ, params = _summary(shared_gain)
    want = GOLDEN_STATUSES["shared_gain"][1]
    for seed in (0, 1, 2):
        v = classify(summ, params, mode="numeric", trials=3, seed=seed)
        assert _statuses(v) == want


def test_numeric_trials_recorded(product_coupling):
    _, summ, params = _summary(product_coupling)
    v = classify(summ, params, mode="numeric", trials=4, seed=9)
    assert len(v.evidence) == 4
    refs = [tuple(sorted(t["theta_ref"].items())) for t in v.evidence]
    assert len(set(refs)) > 1        # distinct draws across trials
    for t in v.evidence:
        vals = [Fraction(s) for s in t["theta_ref"].values()]
        assert len(set(vals)) == len(vals)


def test_unknown_mode_rejected(shared_gain):
    _, summ, params = _summary(shared_gain)
    with pytest.raises(ValueError):
        classify(summ, params, mode="float")


def test_model_status_aggregation():
    G, L, N, U = (ParamStatus(GLOBAL), ParamStatus(LOCAL, 2),
                  ParamStatus(NON_IDENTIFIABLE), ParamStatus(UNDETERMINED))
    assert model_status_of([G, G]) == GLOBAL
    assert model_status_of([G, L]) == LOCAL
    assert model_status_of([L, L]) == LOCAL
    assert model_status_of([G, N]) == NON_IDENTIFIABLE
    assert model_status_of([L, N]) == NON_IDENTIFIABLE
    assert model_status_of([U, N, G]) == UNDETERMINED
    assert model_status_of([U]) == UNDETERMINED


def test_draw_theta_ref_distinct_primes(air_handling_unit):
    params = list(air_handling_unit.params())
    ref = draw_theta_ref(params, random.Random(3))
    again = draw_theta_ref(params, random.Random(3))
    assert ref == again
    vals = list(ref.values())
    assert len(set(vals)) == len(vals)
    for v in vals:
        assert v.denominator == 1
        n = int(v)
        assert n >= 2 and all(n % d for d in range(2, n))


def test_draw_theta_ref_beyond_prime_pool():
    params = [parameter(f"theta{i}", i) for i in range(1, 66)]
    vals = list(draw_theta_ref(params, random.Random(0)).values())
    assert len(set(vals)) == 65
    for v in vals:
        n = int(v)
        assert v.denominator == 1 and n >= 2 and all(n % d for d in range(2, n))
    # small q keeps the fixed pool, so existing draws do not move
    three = draw_theta_ref(params[:3], random.Random(0))
    assert [str(v) for v in three.values()] == ["229", "251", "13"]


def test_denominator_vanishes_at_reference():
    from lpvident.indets import parameter
    t1, t2 = parameter("theta1", 1), parameter("theta2", 2)
    ratio = Expression(Polynomial.var(t1), Polynomial.var(t2))
    summ = ExhaustiveSummary([ratio])
    with pytest.raises(DenominatorVanishesAtTheta):
        evaluate_summary(summ, [t1, t2],
                         {t1: Fraction(1), t2: Fraction(0)})


def test_numeric_mode_redraws_off_the_denominator_variety(monkeypatch):
    # theta1/(theta1 - 2) has no value at theta1 = 2: that draw is dropped
    # and the trial runs at the next one; twenty such draws give up
    classify_mod = importlib.import_module("lpvident.classify")
    t1 = parameter("theta1", 1)
    summ = ExhaustiveSummary(
        [Expression(Polynomial.var(t1), Polynomial.var(t1) - 2)])
    draws = [{t1: Fraction(2)}, {t1: Fraction(5)}]
    monkeypatch.setattr(classify_mod, "draw_theta_ref",
                        lambda params, rng: draws.pop(0))
    v = classify(summ, [t1], trials=1)
    assert draws == []
    assert v.evidence[0]["theta_ref"] == {"theta1": "5"}
    assert v.evidence[0]["basis"] == ["theta1 - 5"]
    assert _statuses(v) == {"theta1": "Global"}

    calls = []

    def vanishing(params, rng):
        calls.append(params)
        return {t1: Fraction(2)}

    monkeypatch.setattr(classify_mod, "draw_theta_ref", vanishing)
    with pytest.raises(DenominatorVanishesAtTheta, match="could not draw"):
        classify(summ, [t1], trials=1)
    assert len(calls) == 20


JACOBIAN_GOLDENS = {
    "product_coupling": (UNDETERMINED, 2, 3, True),
    "shared_gain": (LOCAL, 3, 3, True),
    "air_handling_unit": (LOCAL, 4, 4, True),
    "henon": (UNDETERMINED, 3, 4, True),
    "burgers_discretized": (LOCAL, 2, 2, True),
}


def test_jacobian_rank_test(goldens):
    for name, model in goldens.items():
        iop, _, params = _summary(model)
        v = jacobian_local_test(iop, params, trials=3, seed=0)
        want_status, want_rank, want_q, want_aug = JACOBIAN_GOLDENS[name]
        ev = v.evidence[0]
        assert v.model_status == want_status, name
        assert (ev["max_rank"], ev["q"]) == (want_rank, want_q), name
        assert ev["augmented"] == want_aug, name
        assert ev["equations"] == want_q
        assert v.method == "jacobian"
        per = set(s.status for s in v.per_param.values())
        assert per == {want_status}


def test_jacobian_never_reports_global(goldens):
    for model in goldens.values():
        iop, _, params = _summary(model)
        v = jacobian_local_test(iop, params, trials=2, seed=1)
        assert all(s.status != GLOBAL for s in v.per_param.values())
        assert v.model_status != GLOBAL


def _partial(p, var):
    """d p / d var, term by term: the Jacobian entries of the oracle."""
    out = Polynomial()
    for m, c in p.terms.items():
        d = dict(m)
        if var not in d:
            continue
        e = d.pop(var)
        if e > 1:
            d[var] = e - 1
        out = out + Polynomial({mono_of(d): c * e})
    return out


def _oracle_points(iop, params, trials, seed, points_per_trial=5):
    """(bindings, partial-derivative Jacobian evaluated entry by entry in
    Fraction, its rank) at every point jacobian_local_test draws, in draw
    order."""
    q = len(params)
    eqs = list(iop.equations)
    src = list(iop.equations)
    while len(eqs) < q:
        src = [e.shift() if iop.discrete else e.differentiate() for e in src]
        eqs += src[:q - len(eqs)]
    jac = [[_partial(e, p) for p in params] for e in eqs]
    vars_ = sorted(set().union(*(e.indeterminates() for e in eqs)),
                   key=lambda v: v.sort_key)
    rng = random.Random(seed)
    points = []
    for _ in range(trials):
        for _ in range(points_per_trial):
            bind, drawn = {}, set()
            for v in vars_:
                x = Fraction(rng.randint(1, 97), rng.randint(1, 13))
                while x in drawn:
                    x += 1
                drawn.add(x)
                bind[v] = x
            values = [[cell.evaluate(bind) for cell in row] for row in jac]
            points.append((bind, values, fraction_rank(values)))
            if points[-1][2] == q:
                break
    return points


def _first_iop(model, wmax):
    for w in range(1, wmax + 1):
        s = build_stack(model, w, size_cap=256)
        ns = left_nullspace(s.O)
        if ns.rows:
            try:
                return form_iop(s, ns)
            except EmptyNullspace:
                continue
    return None


def test_jacobian_ranks_match_partial_derivative_oracle(goldens,
                                                        monkeypatch):
    # J diag(theta), rows over integer numerators, has J's rank at every
    # drawn point: the per-point ranks equal those of the partial
    # derivatives evaluated in Fraction
    cases = [_summary(m)[::2] for m in goldens.values()]
    models = [chain_model(n, d) for n in (2, 3, 4)
              for d in ("continuous", "discrete")]
    # the continuous first signal model is left out: forming its order-1
    # equations stalls in the dense polynomial gcd
    models += random_models(30) + signal_models()[1:]
    for m in models:
        iop = _first_iop(m, m.n + 1)
        if iop is not None:
            cases.append((iop, list(m.params())))
    assert len(cases) > 30
    seen = []
    real_rank = elimination.rank_rational

    def recorded(rows):
        seen.append((rows, real_rank(rows)))
        return seen[-1][1]

    monkeypatch.setattr(importlib.import_module("lpvident.classify"),
                        "rank_rational", recorded)
    for iop, params in cases:
        for seed in (0, 1):
            seen.clear()
            v = jacobian_local_test(iop, params, trials=3, seed=seed)
            points = _oracle_points(iop, params, 3, seed)
            assert [r for _, r in seen] == [r for _, _, r in points]
            assert v.evidence[0]["max_rank"] == max(r for _, _, r in points)
            # each row, with column j divided by theta_j, is a positive
            # multiple of the row of partial derivatives
            for (rows, _), (bind, jac, _) in zip(seen, points):
                for new, old in zip(rows, jac):
                    ratios = set()
                    for x, want, p in zip(new, old, params):
                        assert (x == 0) == (want == 0)
                        if want:
                            ratios.add(x / bind[p] / want)
                    assert len(ratios) <= 1 and all(r > 0 for r in ratios)


def test_jacobian_draws_distinct_values_at_each_point(monkeypatch):
    # theta1*theta2 times 40 input samples: J has rank 1 < q = 2, so every
    # point of every trial is drawn, and 43 values of randint(1, 97) /
    # randint(1, 13) would repeat at most points
    t1, t2 = parameter("theta1", 1), parameter("theta2", 2)
    samples = sum((Polynomial.var(signal_var("u", Role.INPUT, k))
                   for k in range(40)), Polynomial())
    eq = Polynomial.var(t1) * Polynomial.var(t2) * samples
    seen = []
    real = Polynomial.term_values

    def recorded(self, bindings):
        seen.append(dict(bindings))
        return real(self, bindings)

    monkeypatch.setattr(Polynomial, "term_values", recorded)
    v = jacobian_local_test(IopSet([eq], 1, True), [t1, t2], trials=5)
    assert v.evidence[0]["ranks"] == [1] * 5
    # two equations, the given one and its shift, at each of 25 points
    assert len(seen) == 50
    for bind in seen:
        assert len(bind) == 43
        assert len(set(bind.values())) == 43
        assert min(bind.values()) >= Fraction(1, 13)


def test_jacobian_without_equations_raises():
    # augmentation grows only from existing equations; with none it could
    # never reach q, so the call refuses up front instead of looping
    def expire(signum, frame):
        raise TimeoutError("jacobian_local_test did not return")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match="no equations"):
            jacobian_local_test(IopSet([], 1, False), [parameter("theta1", 1)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_check_root_rejects_a_zero_root():
    # a monic linear eliminant with no constant term has the root 0, which
    # no reference point holds, numeric (a prime) or symbolic
    from lpvident.classify import _check_root
    from lpvident.groebner import GPoly
    from lpvident.errors import LpvIdentError
    from lpvident.indets import ref_parameter
    t1 = parameter("theta1", 1)
    a = Expression.var(ref_parameter(1))
    zero_root = GPoly({(1,): Fraction(1)}, (t1,))
    for theta_ref in ({t1: Fraction(7)}, None):
        with pytest.raises(LpvIdentError, match="inconsistent"):
            _check_root(zero_root, t1, theta_ref)
    _check_root(GPoly({(1,): Fraction(1), (0,): Fraction(-7)}, (t1,)), t1,
                {t1: Fraction(7)})
    _check_root(GPoly({(1,): Fraction(1), (0,): -a}, (t1,)), t1, None)
    with pytest.raises(LpvIdentError, match="inconsistent"):
        _check_root(GPoly({(1,): Fraction(1), (0,): Fraction(-5)}, (t1,)),
                    t1, {t1: Fraction(7)})
