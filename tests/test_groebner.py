"""Buchberger engine over the reference-parameter coefficient field."""

import importlib
import json
import random
from fractions import Fraction

import pytest

from conftest import (GOLDEN_NAMES, chain_model, is_canonical_coefficient,
                      is_groebner, model_path)
from lpvident.classify import draw_theta_ref, evaluate_summary
from lpvident.cli import main
from lpvident.elimination import left_nullspace
from lpvident.errors import BudgetExceeded
from lpvident.expr import E_ONE, Expression
from lpvident.groebner import (GroebnerBasis, _inter_reduce,
                               gpoly_from_polynomial, groebner_basis,
                               gpoly_text, reduce_gpoly, s_polynomial,
                               univariate_members)
from lpvident.indets import parameter
from lpvident.iop import extract_summary, form_iop
from lpvident.model import parse_model
from lpvident.poly import Polynomial
from lpvident.stacking import build_stack


X = parameter("x", 1)
Y = parameter("y", 2)
Z = parameter("z", 3)
PX, PY, PZ = Polynomial.var(X), Polynomial.var(Y), Polynomial.var(Z)
XY = [X, Y]


def _summary_and_params(model, w=2):
    s = build_stack(model, w)
    iop = form_iop(s, left_nullspace(s.O))
    return extract_summary(iop), list(model.params())


def _symbolic_basis(model):
    summ, params = _summary_and_params(model)
    gens = evaluate_summary(summ, params)
    return groebner_basis(gens, params), gens


def test_textbook_lex_pair():
    gb = groebner_basis([PX * PY - 1, PY * PY - 1], XY)
    assert gb.texts() == ["x - y", "y^2 - 1"]
    assert is_groebner(gb.generators)


def test_s_polynomial():
    f = gpoly_from_polynomial(PX * PY - 1, XY)
    g = gpoly_from_polynomial(PY * PY - 1, XY)
    assert gpoly_text(s_polynomial(f, g)) == "x - y"


def test_reduce_to_zero_and_remainder():
    gb = groebner_basis([PX * PY - 1, PY * PY - 1], XY)
    f = gpoly_from_polynomial(PX * PX * PY - PX, XY)
    assert reduce_gpoly(f, gb.generators).is_zero()
    r = reduce_gpoly(gpoly_from_polynomial(PX + 1, XY), gb.generators)
    assert gpoly_text(r) == "y + 1"


def test_input_list_is_not_checked_as_basis():
    raw = [gpoly_from_polynomial(PX * PY - 1, XY),
           gpoly_from_polynomial(PY * PY - 1, XY)]
    assert not is_groebner(raw)


def test_symbolic_basis_product_coupling(product_coupling):
    gb, gens = _symbolic_basis(product_coupling)
    assert gb.texts() == ["theta1 - a", "theta2*theta3 - b*c"]
    assert [str(g) for g in gens].count("theta1 - a") >= 1


def test_symbolic_basis_shared_gain(shared_gain):
    gb, _ = _symbolic_basis(shared_gain)
    assert gb.texts() == ["theta1 - a", "theta2^2 - b^2", "theta3 - c"]


def test_symbolic_basis_air_handling_unit(air_handling_unit):
    gb, _ = _symbolic_basis(air_handling_unit)
    assert gb.texts() == ["theta1 - a", "theta2 - b",
                          "theta3 - c", "theta4 - d"]


def test_symbolic_basis_henon(henon):
    gb, _ = _symbolic_basis(henon)
    assert gb.texts() == ["theta1 - a", "theta2*theta4 - b*d",
                          "theta3 + ((-c) / (d))*theta4"]


def test_symbolic_basis_burgers(burgers):
    # theta1 - a enters only after dividing by the invertible reference b
    gb, _ = _symbolic_basis(burgers)
    assert gb.texts() == ["theta1 - a", "theta2 - b"]


def _numeric_chain3_generators():
    # discrete Chain(3), q = 5, at w = 4: a numeric basis with many pairs
    # (182 reductions without the chain criterion, 19 with it), but whose
    # generators already hold theta_i - c_i for every i, so the exit at
    # the maximal ideal returns before any pair is reduced
    model = parse_model(
        "time: discrete\nstates: x1, x2, x3\ninputs: u\noutputs: y\n"
        "params: theta1, theta2, theta3, theta4, theta5\n"
        "A: [theta1*u, theta4, 0; 1, theta2*u, theta5; 0, 1, theta3*u]\n"
        "B: [1; 0; 0]\nC: [1, 0, 0]\n")
    summ, params = _summary_and_params(model, 4)
    ref = {p: Fraction(v) for p, v in zip(params, (2, 3, 5, 7, 11))}
    return evaluate_summary(summ, params, ref), params


def _numeric_chain3_basis():
    return groebner_basis(*_numeric_chain3_generators())


def _numeric_shared_gain_generators():
    # shared_gain at w = 4: fifteen generators of an ideal that is not
    # maximal (theta2^2 - 9), so every one of its 13 reductions runs
    model = parse_model(model_path("shared_gain").read_text())
    summ, params = _summary_and_params(model, 4)
    ref = {p: Fraction(v) for p, v in zip(params, (2, 3, 5))}
    return evaluate_summary(summ, params, ref), params


# S-polynomial reductions of each symbolic golden basis: the pair loop's
# selection and criteria fix these counts, so a change to either shows here;
# air_handling_unit's ideal is maximal after one reduction
PINNED_PAIR_REDUCTIONS = {"product_coupling": 2, "shared_gain": 2,
                          "air_handling_unit": 1, "henon": 2,
                          "burgers_discretized": 1}


def test_pair_reductions_pinned(goldens):
    for name, want in PINNED_PAIR_REDUCTIONS.items():
        gb, _ = _symbolic_basis(goldens[name])
        assert gb.pair_reductions == want, name
    gb = _numeric_chain3_basis()
    assert gb.texts() == ["theta1 - 2", "theta2 - 3", "theta3 - 5",
                          "theta4 - 7", "theta5 - 11"]
    assert gb.pair_reductions == 0


def test_coefficient_types(goldens):
    # rationals stay canonical numbers (an int, or a Fraction with a
    # denominator above 1); only terms with reference parameters lift, and a
    # coefficient that Expression arithmetic leaves constant drops back
    gb = _numeric_chain3_basis()
    assert all(is_canonical_coefficient(c)
               for g in gb.generators for c in g.terms.values())
    for name in ("air_handling_unit", "henon", "burgers_discretized"):
        gb, _ = _symbolic_basis(goldens[name])
        assert all(not c.is_constant() if isinstance(c, Expression)
                   else is_canonical_coefficient(c)
                   for g in gb.generators for c in g.terms.values()), name
    gb, _ = _symbolic_basis(goldens["henon"])
    lifted = [repr(c) for g in gb.generators for c in g.terms.values()
              if isinstance(c, Expression)]
    assert "(-c) / (d)" in lifted


def test_numeric_basis_air_handling_unit(air_handling_unit):
    summ, params = _summary_and_params(air_handling_unit)
    ref = {p: Fraction(v) for p, v in zip(params, (1, 2, 3, 5))}
    gens = evaluate_summary(summ, params, ref)
    gb = groebner_basis(gens, params)
    assert gb.texts() == ["theta1 - 1", "theta2 - 2",
                          "theta3 - 3", "theta4 - 5"]


def test_golden_bases_are_groebner_and_span(goldens):
    for model in goldens.values():
        gb, gens = _symbolic_basis(model)
        assert is_groebner(gb.generators)
        for g in gens:
            gp = gpoly_from_polynomial(g, gb.variables)
            assert reduce_gpoly(gp, gb.generators).is_zero()


def test_reduced_basis_properties(goldens):
    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    for model in goldens.values():
        gb, _ = _symbolic_basis(model)
        leads = [g.leading()[0] for g in gb.generators]
        for i, g in enumerate(gb.generators):
            assert g.leading()[1] == E_ONE          # monic
            for m in g.terms:
                assert not any(divides(leads[j], m)
                               for j in range(len(leads)) if j != i)


def test_every_basis_member_is_monic(capsys, monkeypatch):
    # reduce_gpoly and s_polynomial divide by no leading coefficient, which
    # is right only while every basis member is monic: check the reducers of
    # every reduction and the generators of every basis analyze builds
    groebner_mod = importlib.import_module("lpvident.groebner")
    classify_mod = importlib.import_module("lpvident.classify")
    real_reduce = groebner_mod.reduce_gpoly
    reductions, bases = [], []

    def checked_reduce(f, basis):
        assert all(g.leading()[1] == 1 for g in basis)
        reductions.append(len(basis))
        return real_reduce(f, basis)

    def recorded_basis(*args, **kwargs):
        bases.append(groebner_basis(*args, **kwargs))
        return bases[-1]

    monkeypatch.setattr(groebner_mod, "reduce_gpoly", checked_reduce)
    monkeypatch.setattr(classify_mod, "groebner_basis", recorded_basis)
    for name in GOLDEN_NAMES:
        for mode in ("numeric", "symbolic"):
            assert main(["analyze", str(model_path(name)),
                         "--mode", mode]) == 0
            capsys.readouterr()
    assert len(bases) > 10 and len(reductions) > 100
    for gb in bases:
        assert all(g.leading()[1] == 1 for g in gb.generators)


def test_univariate_members(shared_gain, air_handling_unit):
    gb, _ = _symbolic_basis(shared_gain)
    t1, t2, t3 = shared_gain.params()
    assert [gpoly_text(g) for g in univariate_members(gb, t2)] == \
           ["theta2^2 - b^2"]
    assert [gpoly_text(g) for g in univariate_members(gb, t1)] == \
           ["theta1 - a"]
    gb2, _ = _symbolic_basis(air_handling_unit)
    t2ahu = air_handling_unit.params()[1]
    assert [gpoly_text(g) for g in univariate_members(gb2, t2ahu)] == \
           ["theta2 - b"]


def test_pair_budget_exceeded():
    with pytest.raises(BudgetExceeded) as info:
        groebner_basis([PX * PY - 1, PY * PY - 1], XY, pair_budget=0)
    assert "pair budget" in str(info.value)


def test_pair_budget_bounds_performed_reductions(monkeypatch):
    # the numeric shared_gain basis at w = 4 performs 13 reductions: a
    # budget of 13 suffices, and a budget of 12 stops before the 13th
    # S-polynomial
    calls = []

    def counting(f, g):
        calls.append(1)
        return s_polynomial(f, g)

    monkeypatch.setattr("lpvident.groebner.s_polynomial", counting)
    gens, params = _numeric_shared_gain_generators()
    gb = groebner_basis(gens, params, pair_budget=13)
    assert gb.texts() == ["theta1 - 2", "theta2^2 - 9", "theta3 - 5"]
    assert gb.pair_reductions == 13
    assert len(calls) == 13
    calls.clear()
    with pytest.raises(BudgetExceeded) as info:
        groebner_basis(gens, params, pair_budget=12)
    assert "pair budget 12" in str(info.value)
    assert len(calls) == 12


def test_maximal_ideal_exit_checks_every_member():
    # theta_i - c_i for every i is not enough: theta1 - 3 does not vanish
    # at (1, 2), so the ideal is the unit ideal, not the point's
    t1, t2 = parameter("theta1", 1), parameter("theta2", 2)
    p1, p2 = Polynomial.var(t1), Polynomial.var(t2)
    gb = groebner_basis([p1 - 1, p2 - 2, p1 - 3], [t1, t2])
    assert gb.texts() == ["1"]
    gb = groebner_basis([p1 - 1, p2 - 2, p1 * p2 - 2], [t1, t2])
    assert gb.texts() == ["theta1 - 1", "theta2 - 2"]
    assert gb.pair_reductions == 0


def test_maximal_ideal_exit_mid_loop_matches_oracle(goldens):
    # air_handling_unit's generators fix no parameter alone; one reduction
    # gives the last linear leading term, and the basis returned there is
    # the one the all-pairs oracle reaches after every pair
    summ, params = _summary_and_params(goldens["air_handling_unit"])
    gens = evaluate_summary(summ, params)
    want, oracle_reductions = _all_pairs_basis(gens, params)
    gb = groebner_basis(gens, params)
    assert gb.texts() == want
    assert 0 < gb.pair_reductions < oracle_reductions


def test_degree_budget_exceeded():
    with pytest.raises(BudgetExceeded) as info:
        groebner_basis([PX * PY - 1, PY * PY - 1], XY,
                       degree_budget=0)
    assert "degree budget" in str(info.value)


def test_empty_and_zero_generators():
    gb = groebner_basis([], XY)
    assert isinstance(gb, GroebnerBasis)
    assert gb.generators == []
    gb2 = groebner_basis([Polynomial()], XY)
    assert gb2.generators == []


def test_deterministic_basis(henon):
    a, _ = _symbolic_basis(henon)
    b, _ = _symbolic_basis(henon)
    assert a.texts() == b.texts()


def _all_pairs_basis(generators, variables):
    """Reference pair loop: every pending pair is rescanned for the smallest
    lcm, and only the coprime-leading-term criterion skips a pair.

    Returns the reduced basis texts and the number of S-polynomial
    reductions.
    """
    def lcm(a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    basis = [g.monic() for g in (gpoly_from_polynomial(p, variables)
                                 for p in generators) if not g.is_zero()]
    leads = [g.leading()[0] for g in basis]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    reductions = 0
    while pairs:
        i, j = min(pairs, key=lambda p: (lcm(leads[p[0]], leads[p[1]]), p))
        pairs.discard((i, j))
        mi, mj = leads[i], leads[j]
        if lcm(mi, mj) == tuple(a + b for a, b in zip(mi, mj)):
            continue
        reductions += 1
        r = reduce_gpoly(s_polynomial(basis[i], basis[j]), basis)
        if not r.is_zero():
            k = len(basis)
            basis.append(r.monic())
            leads.append(r.leading()[0])
            pairs |= {(t, k) for t in range(k)}
    return [gpoly_text(g) for g in _inter_reduce(basis)], reductions


def _random_ideal(rng):
    # two to three sparse generators of degree <= 2 in x, y, z
    monos = [PX, PY, PZ, PX * PY, PX * PX, PY * PZ, PY * PY, PX * PZ,
             Polynomial.const(1)]
    gens = []
    for _ in range(rng.randint(2, 3)):
        g = Polynomial()
        for m in rng.sample(monos, rng.randint(2, 3)):
            g = g + m.scale(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                     rng.randint(1, 3)))
        gens.append(g)
    return gens


def _oracle_inputs(goldens):
    rng = random.Random(20261019)
    for n in range(30):
        yield f"random-{n}", _random_ideal(rng), [X, Y, Z]
    for name, model in goldens.items():
        summ, params = _summary_and_params(model)
        yield name, evaluate_summary(summ, params), params
    yield "numeric chain-3", *_numeric_chain3_generators()


def test_pair_heap_matches_all_pairs_oracle(goldens):
    # the heap pops pairs in the oracle's order, and the chain criterion only
    # skips pairs; so the reduced basis is the same and the count never rises
    fewer = 0
    for name, gens, variables in _oracle_inputs(goldens):
        want, oracle_reductions = _all_pairs_basis(gens, variables)
        gb = groebner_basis(gens, variables)
        assert gb.texts() == want, name
        assert gb.pair_reductions <= oracle_reductions, name
        fewer += gb.pair_reductions < oracle_reductions
    assert fewer


def test_basis_does_not_depend_on_generator_order(goldens):
    # a reduced lex basis is unique, so shuffled generators give the same
    # basis; only the cost moves, so the pair reduction count is not compared
    rng = random.Random(20261021)
    models = list(goldens.values()) + [
        chain_model(n, d) for n in (2, 3) for d in ("continuous", "discrete")]
    for model in models:
        summ, params = _summary_and_params(model, model.n + 1)
        numeric = evaluate_summary(summ, params, draw_theta_ref(params, rng))
        for gens in (numeric, evaluate_summary(summ, params)):
            for target in params:
                seq = [p for p in params if p != target] + [target]
                want = groebner_basis(gens, seq).texts()
                for _ in range(6):
                    shuffled = rng.sample(gens, len(gens))
                    assert groebner_basis(shuffled, seq).texts() == want


def test_pair_budget_counts_performed_reductions(capsys):
    # pairs the chain criterion skips are not counted: air_handling_unit's
    # bases fit in a budget of 3 that all-pairs reduction (8) would exhaust
    def run(*argv):
        code = main(["analyze", str(model_path("air_handling_unit")),
                     "--format", "json", *argv])
        return code, json.loads(capsys.readouterr().out)

    code, budgeted = run("--pair-budget", "3")
    assert code == 0
    _, default = run()
    assert budgeted["config"]["pair_budget"] == 3
    budgeted.pop("config")
    default.pop("config")
    assert budgeted == default
