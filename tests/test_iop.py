"""Input-output-parameter equations and exhaustive summary extraction."""

import dataclasses
from fractions import Fraction

import pytest

from conftest import rational_models
from lpvident.elimination import NullspaceBasis, left_nullspace
from lpvident.errors import (EmptyNullspace, NoParameterDependence,
                             StateNotEliminated)
from lpvident.expr import Expression, expr_text
from lpvident.indets import Kind, Role, signal
from lpvident.iop import (ExhaustiveSummary, _ranked_groups, extract_summary,
                          form_iop)
from lpvident.model import parse_model
from lpvident.poly import Polynomial, collect, mono_key, poly_text
from lpvident.stacking import build_stack


def _pipeline(model, w=2):
    s = build_stack(model, w)
    ns = left_nullspace(s.O)
    iop = form_iop(s, ns)
    return s, iop, extract_summary(iop)


def _summary_texts(summary):
    return {expr_text(e) for e in summary.elements}


def _canon(p: Polynomial) -> str:
    return poly_text(p.primitive())


def _theta(model):
    return {v.base: Expression.var(v) for v in model.params()}


def test_psi_product_coupling(product_coupling):
    _, iop, _ = _pipeline(product_coupling)
    assert len(iop.equations) == 1
    assert poly_text(iop.equations[0]) == (
        "theta2*theta3*u^3*y - 2*theta1*u*u'*y + theta1*u^2*y' + theta1*u^2*y"
        " - 3*u'^2*y + u*u''*y + 3*u*u'*y' + u*u'*y - u^2*y'' - u^2*y'")
    assert iop.outputs_in(0) == {"y"}


def test_psi_shared_gain(shared_gain):
    _, iop, _ = _pipeline(shared_gain)
    assert poly_text(iop.equations[0]) == (
        "theta2^2*u^3*y + theta1*theta3*u^2*y + theta3*u*u'*y"
        " - theta3*u^2*y' - 2*theta1*u*u'*y + theta1*u^2*y'"
        " - 3*u'^2*y + u*u''*y + 3*u*u'*y' - u^2*y''")


def test_psi_henon(henon):
    _, iop, _ = _pipeline(henon)
    assert poly_text(iop.equations[0], discrete=True) == (
        "theta2*theta4*u[k] + theta2*theta3*y[k] + theta1*y[k+1]^2"
        " - y[k+2] + u[k+1]")


def test_henon_psi_vanishes_on_trajectory_squared_variant_does_not(henon):
    """The y[k]-linear middle term is forced by an exact trajectory.

    theta = (1, 1, 1, 0), x0 = (2, 1), u = 0 gives y = (2, 5, 27); the
    equation with theta2*theta3*y[k]^2 in place of theta2*theta3*y[k]
    evaluates to 2 there, so it cannot hold on trajectories.
    """
    _, iop, _ = _pipeline(henon)
    psi = iop.equations[0]
    t = {v.base: v for v in henon.params()}
    y = signal("y", Role.OUTPUT)
    u = signal("u", Role.INPUT)
    env = {t["theta1"]: Fraction(1), t["theta2"]: Fraction(1),
           t["theta3"]: Fraction(1), t["theta4"]: Fraction(0),
           y: Fraction(2), y.with_order(1): Fraction(5),
           y.with_order(2): Fraction(27),
           u: Fraction(0), u.with_order(1): Fraction(0)}
    assert psi.evaluate(env) == 0
    yk = Polynomial.var(y)
    t23 = Polynomial.var(t["theta2"]) * Polynomial.var(t["theta3"])
    squared_variant = psi + t23 * (yk * yk - yk)
    assert squared_variant.evaluate(env) != 0


def test_summary_product_coupling(product_coupling):
    _, _, summ = _pipeline(product_coupling)
    assert _summary_texts(summ) == {"theta1 - 1", "theta2*theta3",
                                    "2*theta1 - 1", "theta1"}


def test_summary_shared_gain(shared_gain):
    _, _, summ = _pipeline(shared_gain)
    assert _summary_texts(summ) == {"theta3 - theta1", "theta2^2",
                                    "theta3 - 2*theta1", "theta1*theta3"}


def test_summary_air_handling_unit(air_handling_unit):
    _, _, summ = _pipeline(air_handling_unit)
    assert _summary_texts(summ) == {"theta3", "theta1", "theta4 + theta2",
                                    "theta1*theta3", "theta2*theta3",
                                    "theta1*theta4"}


def test_summary_henon(henon):
    _, _, summ = _pipeline(henon)
    assert _summary_texts(summ) == {"theta1", "theta2*theta3",
                                    "theta2*theta4"}


def test_summary_burgers(burgers):
    _, _, summ = _pipeline(burgers)
    assert _summary_texts(summ) == {"theta2 - 1", "theta1*theta2 + theta2"}


def test_summary_elements_are_deduplicated(goldens):
    for model in goldens.values():
        _, _, summ = _pipeline(model)
        texts = [expr_text(e) for e in summ.elements]
        assert len(set(texts)) == len(texts)


def test_continuous_summaries_match_reported_sets_up_to_sign(
        product_coupling, shared_gain):
    reported = {
        "product_coupling": ["1 - 2*t1", "t1 - 1", "t1", "t2*t3"],
        "shared_gain": ["t3 - 2*t1", "t1 - t3", "t1*t3", "t2^2"],
    }
    for model, items in ((product_coupling, reported["product_coupling"]),
                         (shared_gain, reported["shared_gain"])):
        th = _theta(model)
        terms = {
            "1 - 2*t1": Expression(Polynomial.const(1)) - 2 * th["theta1"],
            "t1 - 1": th["theta1"] - Expression(Polynomial.const(1)),
            "t1": th["theta1"],
            "t2*t3": th["theta2"] * th["theta3"],
            "t3 - 2*t1": th["theta3"] - 2 * th["theta1"],
            "t1 - t3": th["theta1"] - th["theta3"],
            "t1*t3": th["theta1"] * th["theta3"],
            "t2^2": th["theta2"] * th["theta2"],
        }
        _, _, summ = _pipeline(model)
        live = {_canon(e.num) for e in summ.elements}
        listed = {_canon(terms[t].num) for t in items}
        assert live == listed


def _ahu_reported_elements(model):
    th = _theta(model)
    one = Expression(Polynomial.const(1))
    t1, t2, t3, t4 = (th[k] for k in ("theta1", "theta2", "theta3", "theta4"))
    return [3 * one - t4 - t2, t2 + t4 - 2 * one, t1, -t1, 5 * t2 * t3,
            -t3, t3 - t2 * t3, t1 * t4, -t1, 2 * t1 - t1 * t4,
            t1 * t3, -t1 * t3]


@pytest.mark.xfail(
    strict=True,
    reason="the widely-quoted 12-element list mixes spellings from an"
           " unexpanded arrangement; they cannot all arise as coefficient"
           " ratios of the expanded primitive equation (the generated ideals"
           " do agree, see the companion test)")
def test_air_handling_unit_literal_reported_summary(air_handling_unit):
    _, _, summ = _pipeline(air_handling_unit)
    live = {_canon(e.num) for e in summ.elements}
    listed = {_canon(e.num) for e in _ahu_reported_elements(air_handling_unit)}
    assert live == listed


def test_air_handling_unit_reported_summary_same_ideal(air_handling_unit):
    from lpvident.classify import evaluate_summary
    from lpvident.groebner import (gpoly_from_polynomial, groebner_basis,
                                   reduce_gpoly)
    from lpvident.indets import ref_parameter

    model = air_handling_unit
    _, _, summ = _pipeline(model)
    params = list(model.params())
    reported = _ahu_reported_elements(model)
    listed = ExhaustiveSummary(reported)
    live_gens = evaluate_summary(summ, params)
    listed_gens = evaluate_summary(listed, params)
    seq = params + [ref_parameter(i) for i in range(1, 5)]
    gb_live = groebner_basis(live_gens, seq)
    gb_listed = groebner_basis(listed_gens, seq)
    for g in listed_gens:
        assert reduce_gpoly(gpoly_from_polynomial(g, seq),
                            gb_live.generators).is_zero()
    for g in live_gens:
        assert reduce_gpoly(gpoly_from_polynomial(g, seq),
                            gb_listed.generators).is_zero()


def test_burgers_reported_summary_equivalence(burgers):
    """The reported 3-element set spans the same constraints.

    Containment in the polynomial ring holds one way; the reverse direction
    needs the reference value of theta2 to be invertible (field view), which
    is how classification consumes the generators: both sets classify every
    parameter Global.
    """
    from lpvident.classify import classify, evaluate_summary
    from lpvident.groebner import (gpoly_from_polynomial, groebner_basis,
                                   reduce_gpoly)
    from lpvident.indets import ref_parameter

    model = burgers
    _, _, summ = _pipeline(model)
    params = list(model.params())
    th = _theta(model)
    t1, t2 = th["theta1"], th["theta2"]
    reported = [t1, t2, t1 - t2 - t1 * t2]
    listed = ExhaustiveSummary(reported)

    seq = params + [ref_parameter(i) for i in range(1, 3)]
    live_gens = evaluate_summary(summ, params)
    listed_gens = evaluate_summary(listed, params)
    gb_listed = groebner_basis(listed_gens, seq)
    for g in live_gens:
        assert reduce_gpoly(gpoly_from_polynomial(g, seq),
                            gb_listed.generators).is_zero()
    # theta1 - a is only reachable after scaling by the theta2 reference
    gb_live = groebner_basis(live_gens, seq)
    residues = [reduce_gpoly(gpoly_from_polynomial(g, seq),
                             gb_live.generators) for g in listed_gens]
    assert any(not r.is_zero() for r in residues)

    live_verdict = classify(summ, params, mode="symbolic")
    listed_verdict = classify(listed, params, mode="symbolic")
    assert {k: v.status for k, v in live_verdict.per_param.items()} == \
           {k: v.status for k, v in listed_verdict.per_param.items()}
    assert live_verdict.model_status == "Global"


@pytest.mark.xfail(
    strict=True,
    reason="literal match with the reported 3-element set; equivalent only"
           " as constraint sets, see companion test")
def test_burgers_literal_reported_summary(burgers):
    _, _, summ = _pipeline(burgers)
    th = _theta(burgers)
    t1, t2 = th["theta1"], th["theta2"]
    listed = {_canon(e.num) for e in (t1, t2, t1 - t2 - t1 * t2)}
    assert {_canon(e.num) for e in summ.elements} == listed


def test_normalizer_is_highest_ranked_signal_monomial(henon):
    _, iop, _ = _pipeline(henon)
    # extract_summary normalises by the first of the ranked groups
    mono, coeff = _ranked_groups(iop.equations[0])[0]
    assert [(v.display(True), e) for v, e in mono] == [("y[k+2]", 1)]
    assert poly_text(coeff) == "-1"


def _two_pass_summary(iop):
    """Oracle: normalisers picked in a pass of their own, ranked ascending
    and taken last, then a second collect-and-sort per equation."""
    def rank(m):
        out_order = max((v.order for v, _ in m if v.kind is Kind.SIGNAL
                         and v.role is Role.OUTPUT), default=-1)
        return (out_order, mono_key(m))

    def signal_groups(psi):
        return collect(psi, {v for v in psi.indeterminates()
                             if v.kind is Kind.SIGNAL})

    normalizers = [sorted(signal_groups(psi).items(),
                          key=lambda t: rank(t[0]))[-1][1]
                   for psi in iop.equations]
    elements, seen = [], set()
    for psi, norm in zip(iop.equations, normalizers):
        groups = signal_groups(psi)
        for m in sorted(groups, key=rank, reverse=True):
            ratio = Expression(groups[m]) / Expression(norm)
            if not ratio.indeterminates():
                continue
            rep = Expression(ratio.num.primitive(), ratio.den)
            if rep not in seen:
                seen.add(rep)
                elements.append(rep)
    return elements


def test_summary_matches_two_pass_normalizer_oracle(goldens):
    compared = 0
    for model in [*goldens.values(), *rational_models()]:
        for w in (1, 2, 3):
            s = build_stack(model, w)
            ns = left_nullspace(s.O)
            if not ns.rows:
                continue
            iop = form_iop(s, ns)
            want = _two_pass_summary(iop)
            if not want:
                with pytest.raises(NoParameterDependence):
                    extract_summary(iop)
                continue
            assert extract_summary(iop).elements == want
            compared += 1
    assert compared == 16


def test_scale_invariance_theta_rational_times_monomial(product_coupling,
                                                        henon):
    cases = [
        (product_coupling, lambda m, s: (
            (Expression.var(m.params()[0]) + Expression(Polynomial.const(2)))
            * Expression.var(s.U[0]) ** 2
            / Expression.var(m.params()[2]))),
        (henon, lambda m, s: (
            Expression.var(m.params()[3]) + Expression(Polynomial.const(1)))
            * Expression.var(s.U[0])
            * Expression.var(signal("y", Role.OUTPUT)) ** 3),
        (product_coupling, lambda m, s: (
            Expression(Polynomial.const(Fraction(7, 3)))
            / Expression.var(s.U[0]))),
    ]
    for model, make in cases:
        s = build_stack(model, 2)
        ns = left_nullspace(s.O)
        base = extract_summary(form_iop(s, ns))
        lam = make(model, s)
        scaled_rows = [[w * lam for w in row] for row in ns.rows]
        scaled = NullspaceBasis(scaled_rows, ns.rank, ns.dimension)
        redone = extract_summary(form_iop(s, scaled))
        assert [expr_text(e) for e in redone.elements] == \
               [expr_text(e) for e in base.elements]


def test_form_iop_takes_the_time_domain_from_the_stack():
    for time in ("continuous", "discrete"):
        m = parse_model(f"time: {time}\nstates: x1\ninputs: u\n"
                        "outputs: y\nparams: theta1\nA: [theta1]\nB: [1]\n"
                        "C: [1]")
        s = build_stack(m, 1)
        ns = left_nullspace(s.O)
        assert s.discrete is m.discrete
        assert form_iop(s, ns).discrete is m.discrete
        assert form_iop(s, ns, m.discrete).discrete is m.discrete
        with pytest.raises(ValueError, match="time domain"):
            form_iop(s, ns, not m.discrete)


def test_empty_nullspace_raises():
    m = parse_model("time: continuous\nparams: theta1\nA: [theta1]\nC: [1]")
    s = build_stack(m, 0)
    with pytest.raises(EmptyNullspace):
        form_iop(s, left_nullspace(s.O))


def test_state_not_eliminated_raises():
    m = parse_model("time: continuous\nparams: theta1\nA: [theta1]\nC: [1]")
    s = build_stack(m, 1)
    leaked = Expression(Polynomial.var(m.states()[0]))
    tampered = dataclasses.replace(s, Y0=[leaked] + s.Y0[1:])
    with pytest.raises(StateNotEliminated):
        form_iop(tampered, left_nullspace(s.O))


def test_no_parameter_dependence_raises():
    m = parse_model("time: continuous\ninputs: u\nA: [u]\nC: [1]")
    s = build_stack(m, 1)
    iop = form_iop(s, left_nullspace(s.O))
    with pytest.raises(NoParameterDependence):
        extract_summary(iop)
