"""Model frontend: parsing, inference, validation, printing."""

import pytest

from lpvident.errors import (DimensionMismatch, ModelError, ModelSyntaxError,
                             NotAffineInParameters, StateInMatrixEntry,
                             UnknownSymbol)
from lpvident.expr import expr_text
from lpvident.model import parse_model, print_model


def test_golden_dimensions(goldens):
    dims = {name: (m.n, m.m, m.p, m.q) for name, m in goldens.items()}
    assert dims == {
        "product_coupling": (2, 1, 1, 3),
        "shared_gain": (2, 1, 1, 3),
        "air_handling_unit": (2, 2, 1, 4),
        "henon": (2, 1, 1, 4),
        "burgers_discretized": (2, 1, 1, 2),
    }
    assert goldens["henon"].discrete
    assert goldens["burgers_discretized"].discrete
    assert not goldens["product_coupling"].discrete


def test_golden_names(air_handling_unit):
    m = air_handling_unit
    assert m.state_names == ("x1", "x2")
    assert m.input_names == ("u1", "u2")
    assert m.output_names == ("y",)
    assert m.param_names == ("theta1", "theta2", "theta3", "theta4")
    assert m.sched_names == ()


def test_minimal_model_inference():
    m = parse_model("time: continuous; A: [theta1]; C: [1]")
    assert (m.n, m.m, m.p, m.q) == (1, 0, 1, 1)
    assert m.state_names == ("x1",)
    assert m.output_names == ("y1",)
    assert m.param_names == ("theta1",)
    assert m.domain == "continuous"
    # B and D default to n x 0 / p x 0 with no inputs declared
    assert m.B == ((),)
    assert m.D == ((),)


def test_param_inference_scans_entries():
    m = parse_model("""
time: discrete
A: [theta2, theta7; 1, 0]
C: [1, 0]
""")
    assert m.param_names == ("theta2", "theta7")
    assert m.state_names == ("x1", "x2")


def test_declared_params_keep_order():
    m = parse_model("""
time: continuous
params: alpha, beta
A: [alpha]
C: [beta]
""")
    assert m.param_names == ("alpha", "beta")


def test_multiline_matrix_and_semicolons():
    m = parse_model("""
time: continuous; states: x1, x2
outputs: y
params: theta1
A: [theta1, 1;
    0, -1]
C: [1, 0]
""")
    assert m.n == 2 and m.p == 1
    assert expr_text(m.A[0][0]) == "theta1"


def test_entry_arithmetic():
    m = parse_model("""
time: continuous
inputs: u
params: theta1
A: [(1/2)*theta1 - 2, u^2; -u, 0]
C: [1, 0]
""")
    assert expr_text(m.A[0][0]) == "1/2*theta1 - 2"
    assert expr_text(m.A[0][1]) == "u^2"
    assert expr_text(m.A[1][0]) == "-u"


def test_rational_entries_allowed_in_signals():
    m = parse_model("""
time: continuous
inputs: u
params: theta1
A: [theta1/u]
C: [1]
""")
    assert expr_text(m.A[0][0]) == "(theta1) / (u)"


def test_state_in_entry_rejected():
    with pytest.raises(StateInMatrixEntry):
        parse_model("time: continuous\nstates: x1\nA: [x1]\nC: [1]")


def test_not_affine_in_parameters():
    with pytest.raises(NotAffineInParameters):
        parse_model("time: continuous\nparams: theta1, theta2\n"
                    "A: [theta1*theta2]\nC: [1]")
    with pytest.raises(NotAffineInParameters):
        parse_model("time: continuous\nparams: theta1\nA: [theta1^2]\nC: [1]")
    with pytest.raises(NotAffineInParameters):
        parse_model("time: continuous\nparams: theta1\nA: [1/theta1]\nC: [1]")


def test_unknown_symbol_has_position():
    with pytest.raises(UnknownSymbol) as info:
        parse_model("time: continuous\nparams: theta1\nA: [gamma]\nC: [1]")
    assert info.value.line == 3
    assert info.value.col >= 5


def test_dimension_mismatches():
    with pytest.raises(DimensionMismatch):
        parse_model("time: continuous\nstates: x1, x2\nA: [1, 0]\nC: [1, 0]")
    with pytest.raises(DimensionMismatch):
        parse_model("time: continuous\nstates: x1\nA: [1]\nC: [1, 0]")
    with pytest.raises(DimensionMismatch):
        parse_model("time: continuous\nstates: x1\ninputs: u\n"
                    "A: [1]\nB: [1, 1]\nC: [1]")


def test_syntax_errors_carry_location():
    with pytest.raises(ModelSyntaxError):
        parse_model("A: [1]\nC: [1]")  # missing time
    with pytest.raises(ModelSyntaxError) as info:
        parse_model("time: continuous\ntime: discrete\nA: [1]\nC: [1]")
    assert "duplicate" in str(info.value)
    assert info.value.line == 2
    with pytest.raises(ModelSyntaxError):
        parse_model("time: maybe\nA: [1]\nC: [1]")
    with pytest.raises(ModelSyntaxError):
        parse_model("time: continuous\nA [1]\nC: [1]")
    with pytest.raises(DimensionMismatch):
        parse_model("time: continuous")  # missing A and C


def test_division_by_zero_constant():
    with pytest.raises(ModelSyntaxError):
        parse_model("time: continuous\nA: [1/0]\nC: [1]")


def test_output_premise_warning(henon):
    assert any(d.code == "output-premise" for d in henon.warnings)


def test_rank_deficient_c_warning():
    m = parse_model("time: continuous\nstates: x1, x2\nparams: theta1\n"
                    "A: [theta1, 0; 0, 1]\nC: [0, 0]")
    assert any(d.code == "rank-deficient-C" for d in m.warnings)


def test_rank_deficient_c_warning_is_exact():
    # rows u*(1, v) and v*(1, v): rank 1 over the rational functions
    m = parse_model("time: continuous\nstates: x1, x2\ninputs: u, v\n"
                    "outputs: y1, y2\nparams: theta1\n"
                    "A: [theta1, 0; 0, 1]\nB: [1, 0; 0, 1]\n"
                    "C: [u, u*v; v, v^2]")
    assert [d.code for d in m.warnings] == ["rank-deficient-C"]


def test_c_with_a_pole_has_full_rank():
    m = parse_model("time: continuous\nstates: x1, x2\ninputs: u\n"
                    "params: theta1\nA: [theta1, 0; 0, 1]\nB: [1; 0]\n"
                    "C: [1/(u-3), 0]")
    assert m.warnings == ()


def test_parse_model_draws_no_random_numbers(monkeypatch):
    import random

    def refuse(*args, **kwargs):
        raise AssertionError("parse_model drew a random number")

    monkeypatch.setattr(random, "Random", refuse)
    m = parse_model("time: continuous\nstates: x1, x2\ninputs: u, v\n"
                    "outputs: y1, y2\nparams: theta1\n"
                    "A: [theta1, 0; 0, 1]\nB: [1, 0; 0, 1]\n"
                    "C: [u, v; v, u]")
    assert m.warnings == ()


def test_clean_model_has_no_warnings(product_coupling):
    assert product_coupling.warnings == ()


def test_print_model_round_trip_keeps_scheduling():
    m = parse_model("time: discrete\nstates: x1\ninputs: u\noutputs: y\n"
                    "scheduling: r\nparams: theta1, theta2\n"
                    "A: [theta1*r]\nB: [theta2]\nC: [1]")
    text = print_model(m)
    assert "scheduling: r\n" in text
    again = parse_model(text)
    assert again.sched_names == m.sched_names == ("r",)
    assert (again.A, again.B, again.C, again.D) == (m.A, m.B, m.C, m.D)
    assert print_model(again) == text


def test_print_model_round_trip(goldens):
    # a model without parameters prints no "params:" line, which the parser
    # would reject as an empty list
    no_params = parse_model("time: continuous\nstates: x1\ninputs: u\n"
                            "outputs: y\nA: [-1]\nB: [1]\nC: [1]")
    for m in [*goldens.values(), no_params]:
        again = parse_model(print_model(m))
        assert again.domain == m.domain
        assert again.state_names == m.state_names
        assert again.param_names == m.param_names
        assert again.A == m.A
        assert again.B == m.B
        assert again.C == m.C
        assert again.D == m.D


# (model text, exception class, message, line, col): each malformed input
# fails at the first check it breaks, at that token's position
MALFORMED = [
    ("time: continuous\nA: [1, 0\nC: [1]\n",
     ModelSyntaxError, "unbalanced '['", 2, 4),
    ("time: continuous\nA: [1]]\nC: [1]\n",
     ModelSyntaxError, "unbalanced ']'", 2, 7),
    ("time: continuous\nstates: x1 x2\nA: [1, 0; 0, 1]\nC: [1, 0]\n",
     ModelSyntaxError, "expected ',' in 'states' list", 2, 12),
    ("time: continuous\nstates: , x1\nA: [1]\nC: [1]\n",
     ModelSyntaxError, "expected name in 'states' list", 2, 9),
    ("time: continuous\nstates: x1,\nA: [1]\nC: [1]\n",
     ModelSyntaxError, "empty or trailing-comma 'states' list", 2, 1),
    ("time: continuous\nstates: x1,, x2\nA: [1, 0; 0, 1]\nC: [1, 0]\n",
     ModelSyntaxError, "expected name in 'states' list", 2, 12),
    ("time: continuous\nstates: x1\nstates: x2\nA: [1]\nC: [1]\n",
     ModelSyntaxError, "duplicate section 'states'", 3, 1),
    ("time: continuous\nA: [1]\nC: [1]\nA: [2]\n",
     ModelSyntaxError, "duplicate matrix 'A'", 4, 1),
    ("time: continuous\nE: [1]\nA: [1]\nC: [1]\n",
     ModelSyntaxError, "unknown statement 'E'", 2, 1),
    ("time: continuous\nstates: x1, x2\nA: [1, 0; 0, 1]\nC: [1, ]\n",
     ModelSyntaxError, "unexpected end of entry", 4, 1),
    ("time: continuous\nstates: x1, x2\nA: [1, 0; 0, 1]\nC: [, 1]\n",
     ModelSyntaxError, "unexpected end of entry", 4, 1),
    ("time: continuous\nA:\nC: [1]\n",
     ModelSyntaxError, "expected '[' to open matrix", 2, 1),
    ("time: continuous\nparams: theta1\nA: [theta1, 1;\n    0, gamma]\n"
     "C: [1, 0]\n", UnknownSymbol, "undeclared name 'gamma'", 4, 8),
    ("time: continuous; params: theta1; A: [gamma]; C: [1]\n",
     UnknownSymbol, "undeclared name 'gamma'", 1, 39),
    ("time: continuous\nA: [1 $ 2]\nC: [1]\n",
     ModelSyntaxError, "unexpected character '$'", 2, 7),
    ("time: continuous\nparams: theta1\nA: [theta1^theta1]\nC: [1]\n",
     ModelSyntaxError, "exponent must be an integer literal", 3, 12),
    ("time: continuous\nA: [0^-1]\nC: [1]\n",
     ModelSyntaxError, "zero to a negative power", 2, 8),
    ("time: continuous\nA: [1 2]\nC: [1]\n",
     ModelSyntaxError, "unexpected token '2'", 2, 7),
    ("time: continuous\nA: [(1 2]\nC: [1]\n",
     ModelSyntaxError, "expected ')'", 2, 8),
    ("time: continuous\nA: [)]\nC: [1]\n",
     ModelSyntaxError, "unexpected token ')'", 2, 5),
    ("time: continuous\nA: [1] 2\nC: [1]\n",
     ModelSyntaxError, "expected ']' to close matrix", 2, 8),
    ("time: continuous\n1: [1]\nA: [1]\nC: [1]\n",
     ModelSyntaxError, "expected statement keyword, got '1'", 2, 1),
    ("time: continuous\nA: [1]\n",
     DimensionMismatch, "matrix C is required", 1, 1),
    # a name declared twice is located at the later declaration, or at the
    # earlier one when the later name (here output y1) was made up
    ("time: continuous\ninputs: u\nscheduling: u\nA: [u]\nB: [1]\nC: [1]\n",
     ModelSyntaxError, "name 'u' declared as both input and scheduling", 3, 13),
    ("time: continuous\ninputs: y1\nA: [1]\nB: [1]\nC: [1]\n",
     ModelSyntaxError, "name 'y1' declared as both input and output", 2, 9),
]


@pytest.mark.parametrize("text,cls,message,line,col", MALFORMED)
def test_malformed_model_location(text, cls, message, line, col):
    with pytest.raises(ModelError) as info:
        parse_model(text)
    assert type(info.value) is cls
    assert (info.value.message, info.value.line, info.value.col) == (
        message, line, col)
