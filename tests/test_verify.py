"""Independent verification: back-substitution, stack substitution, trajectories."""

import dataclasses
from fractions import Fraction

import pytest

from conftest import (CHAIN4_DISCRETE, chain_model, load_model,
                      rational_models, signal_models)
from lpvident import verify
from lpvident.elimination import left_nullspace
from lpvident.errors import ModelError
from lpvident.expr import Expression, expr_text
from lpvident.indets import Kind, Role, signal
from lpvident.iop import IopSet, form_iop
from lpvident.model import parse_model
from lpvident.poly import Polynomial
from lpvident.stacking import build_stack
from lpvident.verify import (backsubstitute_check, discrete_trajectory_check,
                             output_closure, stack_substitution_check)


def _iop(model, w=2):
    s = build_stack(model, w)
    return s, form_iop(s, left_nullspace(s.O))


def _corrupt(iop):
    bumped = [iop.equations[0] + Polynomial.const(1)] + iop.equations[1:]
    return IopSet(bumped, iop.order, iop.discrete)


def test_output_closure_continuous(product_coupling):
    cl = output_closure(product_coupling, 2)
    y = signal("y", Role.OUTPUT)
    x1, x2 = product_coupling.states()
    assert set(cl) == {y, y.with_order(1), y.with_order(2),
                       x1.with_order(1), x2.with_order(1),
                       x1.with_order(2), x2.with_order(2)}
    assert expr_text(cl[y]) == "u*x1"
    assert expr_text(cl[y.with_order(1)]) == \
        "theta2*u^2*x2 + theta1*u*x1 + u'*x1"
    assert expr_text(cl[y.with_order(2)]) == (
        "theta2*theta3*u^2*x1 + theta1*theta2*u^2*x2 + 3*theta2*u*u'*x2"
        " - theta2*u^2*x2 + theta1^2*u*x1 + 2*theta1*u'*x1 + u''*x1")


def test_output_closure_discrete(henon):
    cl = output_closure(henon, 2)
    y = signal("y", Role.OUTPUT)
    d = True
    assert expr_text(cl[y], d) == "x1[k]"
    assert expr_text(cl[y.with_order(1)], d) == \
        "theta1*x1[k]^2 + theta2*x2[k] + u[k]"
    # second shift re-enters the dynamics through the premise output
    two = expr_text(cl[y.with_order(2)], d)
    assert "theta1^3*x1[k]^4" in two and "u[k+1]" in two


def _output_free(model):
    """The model's A, B, C and D with each order-0 output in A and B
    replaced by C x + D u; validation keeps outputs out of C and D."""
    xs = [Expression.var(s) for s in model.states()]
    us = [Expression.var(u) for u in model.inputs()]
    ymap = dict(zip(model.outputs(), verify._affine(model.C, model.D, xs, us)))
    mats = {k: [[e.substitute(ymap) for e in row]
                for row in getattr(model, k)] for k in "AB"}
    return {**mats, "C": model.C, "D": model.D}


def _nshift_closure(model, max_order):
    """Reference discrete closure: at order j each output-free matrix is
    shifted j times from the model's own, then its order-j states bound."""
    mats = _output_free(model)
    xj = [Expression.var(s) for s in model.states()]
    closure = {}
    for j in range(max_order + 1):
        bind = ({s.with_order(j): x for s, x in zip(model.states(), xj)}
                if j else {})
        closure.update(bind)

        def shifted(mat):
            out = []
            for row in mat:
                out.append([])
                for e in row:
                    for _ in range(j):
                        e = e.shift()
                    out[-1].append(e.substitute(bind))
            return out

        us = [Expression.var(u.with_order(j)) for u in model.inputs()]
        closure.update(zip([y.with_order(j) for y in model.outputs()],
                           verify._affine(shifted(mats["C"]),
                                          shifted(mats["D"]), xj, us)))
        if j < max_order:
            xj = verify._affine(shifted(mats["A"]), shifted(mats["B"]), xj, us)
    return closure


def _total_derivative_closure(model, max_order):
    """Reference continuous closure: y and x, with outputs in A and B
    replaced, differentiated again and again, each derivative closed by
    xdot = A x + B u."""
    mats = _output_free(model)
    xj = [Expression.var(s) for s in model.states()]
    us = [Expression.var(u) for u in model.inputs()]
    xdot = verify._affine(mats["A"], mats["B"], xj, us)
    dot_bind = {s.with_order(1): d for s, d in zip(model.states(), xdot)}

    def total_d(e):
        return e.differentiate().substitute(dot_bind)

    yj = verify._affine(mats["C"], mats["D"], xj, us)
    closure = {}
    for j in range(max_order + 1):
        if j:
            xj = [total_d(e) for e in xj]
            yj = [total_d(e) for e in yj]
            closure.update((s.with_order(j), x)
                           for s, x in zip(model.states(), xj))
        closure.update((y.with_order(j), e)
                       for y, e in zip(model.outputs(), yj))
    return closure


# the order each closure is compared up to: output-scheduled rational
# entries grow too fast for higher orders
_SIGNALS = [m for m in signal_models() if m.discrete]
_CLOSURE_CASES = [("henon", load_model("henon"), 4),
                  ("burgers", load_model("burgers_discretized"), 4),
                  ("chain4_discrete", parse_model(CHAIN4_DISCRETE), 4),
                  ("signals0_discrete", _SIGNALS[0], 1),
                  ("signals1_discrete", _SIGNALS[1], 2),
                  # its order-2 closure runs for minutes unless poly_gcd
                  # folds the content from the fewest-term coefficient
                  ("rational_scheduled_discrete", parse_model(
                      "time: discrete\nstates: x1, x2\ninputs: u, v\n"
                      "outputs: y1, y2\nscheduling: r\n"
                      "params: theta1, theta2\n"
                      "A: [theta1/(u-2), r; y1, theta2]\n"
                      "B: [u, 0; 0, 1]\nC: [u, v; 1, 0]\nD: [v, 0; 0, u^2]"),
                   2)]


@pytest.mark.parametrize("model,top", [c[1:] for c in _CLOSURE_CASES],
                         ids=[c[0] for c in _CLOSURE_CASES])
def test_carried_shifts_match_repeated_shifts(model, top):
    for w in range(top + 1):
        assert output_closure(model, w) == _nshift_closure(model, w), \
            f"order {w}"


_CONTINUOUS_SIGNALS = [m for m in signal_models() if not m.discrete]
_DERIVATIVE_CASES = (
    [(name, load_model(name), 4)
     for name in ("air_handling_unit", "product_coupling", "shared_gain")]
    + [(f"chain{n}_continuous", chain_model(n, "continuous"), 4)
       for n in (2, 3, 4)]
    + [("signals0_continuous", _CONTINUOUS_SIGNALS[0], 1),
       ("signals1_continuous", _CONTINUOUS_SIGNALS[1], 2)])


@pytest.mark.parametrize("model,top", [c[1:] for c in _DERIVATIVE_CASES],
                         ids=[c[0] for c in _DERIVATIVE_CASES])
def test_stepped_derivatives_match_total_derivatives(model, top):
    for w in range(top + 1):
        want = _total_derivative_closure(model, w)
        assert output_closure(model, w) == want, f"order {w}"


def test_closure_variables_are_order_zero(goldens):
    for model in goldens.values():
        cl = output_closure(model, 2)
        allowed_roles = {Role.STATE, Role.INPUT, Role.SCHEDULING}
        for expr in cl.values():
            for v in expr.indeterminates():
                if v.kind is not Kind.SIGNAL:
                    continue
                assert v.role in allowed_roles
                if v.role is Role.STATE:
                    assert v.order == 0


def test_backsubstitution_goldens(goldens):
    for model in goldens.values():
        _, iop = _iop(model)
        rep = backsubstitute_check(output_closure(model, iop.order), iop)
        assert rep.ok
        assert len(rep.residuals) == len(iop.equations)
        assert all(r.is_zero() for r in rep.residuals)


def test_backsubstitution_rejects_corrupted_equation(product_coupling,
                                                     henon):
    for model in (product_coupling, henon):
        _, iop = _iop(model)
        rep = backsubstitute_check(output_closure(model, iop.order),
                                   _corrupt(iop))
        assert not rep.ok
        assert not rep.residuals[0].is_zero()


def test_stack_substitution_goldens(goldens):
    # the rational models stop at order 2: their order-3 residuals take
    # seconds (continuous) to minutes (discrete) to substitute
    cases = [(m, w) for m in goldens.values() for w in (1, 2, 3)]
    cases += [(m, w) for m in rational_models() for w in (1, 2)]
    for model, w in cases:
        s = build_stack(model, w)
        assert stack_substitution_check(output_closure(model, w), s)


def _highest_output_order(iop):
    return max(v.order for psi in iop.equations for v in psi.indeterminates()
               if v.kind is Kind.SIGNAL and v.role is Role.OUTPUT)


def test_order_w_closure_matches_smallest_closure(goldens, henon):
    # the order-w closure extends the closure at the equations' highest
    # output order entry by entry, so back-substitution gives the same
    # residuals from either
    cases = [(m, 2) for m in goldens.values()] + [(henon, 4)]
    for model, w in cases:
        _, iop = _iop(model, w)
        top = _highest_output_order(iop)
        assert top <= w
        small, full = output_closure(model, top), output_closure(model, w)
        assert all(full[v] == e for v, e in small.items())
        # the first equation gains y^(top), whose residual is not zero
        y_top = Polynomial.var(signal(model.output_names[0], Role.OUTPUT, top))
        bumped = IopSet([iop.equations[0] + y_top] + iop.equations[1:],
                        iop.order, iop.discrete)
        for eqs in (iop, bumped):
            want = backsubstitute_check(small, eqs)
            got = backsubstitute_check(full, eqs)
            assert got.residuals == want.residuals
            assert got.ok == want.ok
        assert not got.ok


def test_stack_substitution_rejects_corrupted_stack(henon, product_coupling):
    # one A-block entry of O gains 1: that row no longer follows the model
    for model in (henon, product_coupling, *rational_models()):
        s = build_stack(model, 2)
        closure = output_closure(model, 2)
        assert stack_substitution_check(closure, s)
        row = 3 * len(model.outputs())   # the first A-block row follows y^(0..2)
        O = [list(r) for r in s.O]
        O[row][0] = O[row][0] + 1
        bad = dataclasses.replace(s, O=O)
        assert not stack_substitution_check(closure, bad)


def test_trajectory_check_discrete(henon, burgers):
    for model in (henon, burgers):
        _, iop = _iop(model)
        theta = {p: Fraction(v)
                 for p, v in zip(model.params(), (2, 3, 5, 7))}
        rep = discrete_trajectory_check(model, iop, theta, steps=6, seed=0)
        assert rep.ok
        assert rep.windows == 4
        assert rep.max_residual == 0


def test_trajectory_check_redraws_singular_segment():
    # a zero input makes theta1/u vanish in its denominator; each window
    # redraws its own segment, so one zero draw cannot spoil the check
    m = parse_model("time: discrete\nstates: x1, x2\ninputs: u\noutputs: y\n"
                    "params: theta1, theta2\nA: [0, 1; theta1/u, theta2]\n"
                    "B: [0; 1]\nC: [1, 0]")
    _, iop = _iop(m)
    theta = {p: Fraction(v) for p, v in zip(m.params(), (2, 3))}
    rep = discrete_trajectory_check(m, iop, theta, steps=40, seed=0)
    assert rep.ok
    assert rep.windows == 38
    assert rep.max_residual == 0


def test_trajectory_check_flags_corruption(henon):
    _, iop = _iop(henon)
    theta = {p: Fraction(v) for p, v in zip(henon.params(), (2, 3, 5, 7))}
    rep = discrete_trajectory_check(henon, _corrupt(iop), theta,
                                    steps=6, seed=0)
    assert not rep.ok
    assert rep.max_residual != 0


def test_trajectory_check_needs_a_window(henon):
    # steps <= w would evaluate no window and still pass, so it is refused
    _, iop = _iop(henon, 3)
    theta = {p: Fraction(v) for p, v in zip(henon.params(), (2, 3, 5, 7))}
    for steps in (2, 3):
        with pytest.raises(ValueError):
            discrete_trajectory_check(henon, iop, theta, steps=steps)
    rep = discrete_trajectory_check(henon, iop, theta, steps=4)
    assert rep.ok and rep.windows == 1


def test_trajectory_check_continuous_rejected(product_coupling):
    _, iop = _iop(product_coupling)
    theta = {p: Fraction(1) for p in product_coupling.params()}
    with pytest.raises(ValueError):
        discrete_trajectory_check(product_coupling, iop, theta)


def test_output_inside_c_rejected():
    # outputs in C or D fail model validation, so no closure meets them
    with pytest.raises(ModelError, match=r"output appears in C\[1,1\]"):
        parse_model("time: discrete\nstates: x1\noutputs: y\n"
                    "params: theta1\nA: [theta1]\nC: [y]")
    with pytest.raises(ModelError, match=r"output appears in D\[1,2\]"):
        parse_model("time: discrete\nstates: x1\ninputs: u, v\noutputs: y\n"
                    "params: theta1\nA: [theta1]\nB: [1, 0]\nC: [1]\n"
                    "D: [0, u*y]")
