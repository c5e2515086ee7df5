"""Verdicts from the exhaustive summary: Groebner and Jacobian engines."""

import importlib
import random
from fractions import Fraction

import pytest

from lpvident.classify import (GLOBAL, LOCAL, NON_IDENTIFIABLE, UNDETERMINED,
                               ParamStatus, classify, draw_theta_ref,
                               evaluate_summary, jacobian_local_test,
                               model_status_of)
from lpvident.elimination import left_nullspace
from lpvident.errors import DenominatorVanishesAtTheta
from lpvident.expr import Expression
from lpvident.groebner import groebner_basis
from lpvident.iop import ExhaustiveSummary, extract_summary, form_iop
from lpvident.indets import parameter
from lpvident.poly import MonomialOrder, Polynomial, poly_text
from lpvident.stacking import build_stack


def _summary(model, w=2):
    s = build_stack(model, w)
    iop = form_iop(s, left_nullspace(s.O), discrete=model.discrete)
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
    summ = ExhaustiveSummary([Expression(Polynomial.var(t))], [(0, None)])
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


@pytest.mark.parametrize("mode", ["symbolic", "numeric"])
def test_one_basis_per_parameter_and_trial(goldens, mode, monkeypatch):
    # the package re-exports the function classify under the module's name
    classify_mod = importlib.import_module("lpvident.classify")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return groebner_basis(*args, **kwargs)

    monkeypatch.setattr(classify_mod, "groebner_basis", counted)
    for name in ("shared_gain", "air_handling_unit"):
        _, summ, params = _summary(goldens[name])
        calls.clear()
        v = classify(summ, params, mode=mode, trials=3)
        # one elimination basis per parameter and trial, and nothing more
        assert [o.variables[-1] for o in calls] == params * v.trials, name
        for trial in v.evidence:
            if mode == "symbolic":
                gens = evaluate_summary(summ, params)
            else:
                ref = {p: Fraction(trial["theta_ref"][p.base]) for p in params}
                gens = evaluate_summary(summ, params, ref)
            # the trial's basis is the lex(params) basis of its generators
            full = groebner_basis(gens, MonomialOrder.lex(params))
            assert trial["basis"] == full.texts(), name
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
    summ = ExhaustiveSummary([ratio], [(0, None)])
    with pytest.raises(DenominatorVanishesAtTheta):
        evaluate_summary(summ, [t1, t2],
                         {t1: Fraction(1), t2: Fraction(0)})


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
