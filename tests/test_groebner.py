"""Buchberger engine over the reference-parameter coefficient field."""

from fractions import Fraction

import pytest

from conftest import is_groebner
from lpvident.classify import evaluate_summary
from lpvident.elimination import left_nullspace
from lpvident.errors import BudgetExceeded
from lpvident.expr import E_ONE, Expression
from lpvident.groebner import (GroebnerBasis, gpoly_from_polynomial,
                               groebner_basis, gpoly_text, reduce_gpoly,
                               s_polynomial, univariate_members)
from lpvident.indets import parameter
from lpvident.iop import extract_summary, form_iop
from lpvident.model import parse_model
from lpvident.poly import Polynomial
from lpvident.stacking import build_stack


X = parameter("x", 1)
Y = parameter("y", 2)
PX, PY = Polynomial.var(X), Polynomial.var(Y)
XY = [X, Y]


def _summary_and_params(model, w=2):
    s = build_stack(model, w)
    iop = form_iop(s, left_nullspace(s.O), discrete=model.discrete)
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


def _numeric_chain3_basis():
    # discrete Chain(3), q = 5, at w = 4: a numeric basis with enough
    # pairs (182 reductions) to exercise the pair loop
    model = parse_model(
        "time: discrete\nstates: x1, x2, x3\ninputs: u\noutputs: y\n"
        "params: theta1, theta2, theta3, theta4, theta5\n"
        "A: [theta1*u, theta4, 0; 1, theta2*u, theta5; 0, 1, theta3*u]\n"
        "B: [1; 0; 0]\nC: [1, 0, 0]\n")
    summ, params = _summary_and_params(model, 4)
    ref = {p: Fraction(v) for p, v in zip(params, (2, 3, 5, 7, 11))}
    return groebner_basis(evaluate_summary(summ, params, ref), params)


# S-polynomial reductions of each symbolic golden basis: the pair loop's
# selection and criteria fix these counts, so a change to either shows here
PINNED_PAIR_REDUCTIONS = {"product_coupling": 3, "shared_gain": 4,
                          "air_handling_unit": 8, "henon": 2,
                          "burgers_discretized": 2}


def test_pair_reductions_pinned(goldens):
    for name, want in PINNED_PAIR_REDUCTIONS.items():
        gb, _ = _symbolic_basis(goldens[name])
        assert gb.pair_reductions == want, name
    gb = _numeric_chain3_basis()
    assert gb.texts() == ["theta1 - 2", "theta2 - 3", "theta3 - 5",
                          "theta4 - 7", "theta5 - 11"]
    assert gb.pair_reductions == 182


def test_coefficient_types(goldens):
    # rationals stay Fraction; only terms with reference parameters lift, and
    # a coefficient that Expression arithmetic leaves constant drops back
    gb = _numeric_chain3_basis()
    assert all(type(c) is Fraction
               for g in gb.generators for c in g.terms.values())
    for name in ("air_handling_unit", "henon", "burgers_discretized"):
        gb, _ = _symbolic_basis(goldens[name])
        assert all(type(c) is Fraction
                   for g in gb.generators for c in g.terms.values()
                   if not isinstance(c, Expression) or c.is_constant()), name
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
