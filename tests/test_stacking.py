"""Stacked derivative / shift systems."""

from math import comb

import pytest

from conftest import (CHAIN4_DISCRETE, GOLDEN_NAMES, load_model,
                      random_models, signal_models)
from lpvident.model import parse_model
from lpvident.errors import OrderTooLargeForBudget
from lpvident.expr import E_ONE, E_ZERO, Expression, expr_text
from lpvident.indets import Kind, Role
from lpvident.stacking import build_stack


def _texts(row, discrete=False):
    return [expr_text(e, discrete=discrete) for e in row]


def _block_stack(model, w):
    """Reference (O, G, Y0) written out block by block.

    Continuous: output block (i, j) is binom(i, j) C^(i-j) with -binom(i, j)
    D^(i-j) on the forced side, state block (i, j) is -binom(i, j) A^(i-j)
    with binom(i, j) B^(i-j), plus the identity on block column i+1.
    Discrete: C_{k+i}, -D_{k+i} on block i, and -A_{k+i}, B_{k+i} on block i
    with the identity on block i+1.
    """
    n, m, p = model.n, model.m, model.p

    def seq(mat):
        out = [[list(row) for row in mat]]
        for _ in range(w):
            out.append([[e.shift() if model.discrete else e.differentiate()
                         for e in row] for row in out[-1]])
        return out

    A, B, C, D = (seq(mat) for mat in (model.A, model.B, model.C, model.D))
    rows = (w + 1) * p + w * n
    O = [[E_ZERO] * ((w + 1) * n) for _ in range(rows)]
    G = [[E_ZERO] * ((w + 1) * m) for _ in range(rows)]

    def put(dst, r0, c0, block, scale):
        for i, row in enumerate(block):
            for j, e in enumerate(row):
                dst[r0 + i][c0 + j] = e * scale

    # (block column, derivative or shift count, weight) of block row i
    if model.discrete:
        terms = lambda i: [(i, i, 1)]
    else:
        terms = lambda i: [(j, i - j, comb(i, j)) for j in range(i + 1)]
    for i in range(w + 1):
        for j, k, scale in terms(i):
            put(O, i * p, j * n, C[k], scale)
            put(G, i * p, j * m, D[k], -scale)
    for i in range(w):
        r0 = (w + 1) * p + i * n
        for j, k, scale in terms(i):
            put(O, r0, j * n, A[k], -scale)
            put(G, r0, j * m, B[k], scale)
        for k in range(n):
            O[r0 + k][(i + 1) * n + k] = E_ONE
    Y0 = [Expression.var(s.with_order(i))
          for i in range(w + 1) for s in model.outputs()]
    return O, G, Y0 + [E_ZERO] * (w * n)


_ORACLE_MODELS = ([(name, load_model(name)) for name in GOLDEN_NAMES]
                  + [("chain4_discrete", parse_model(CHAIN4_DISCRETE))]
                  + [(f"signals{i // 2}_{m.domain}", m)
                     for i, m in enumerate(signal_models())])


@pytest.mark.parametrize("model", [m for _, m in _ORACLE_MODELS],
                         ids=[name for name, _ in _ORACLE_MODELS])
def test_stepped_relations_match_block_layout(model):
    for w in range(5):
        s = build_stack(model, w)
        O, G, Y0 = _block_stack(model, w)
        assert (s.O, s.G, s.Y0) == (O, G, Y0), f"order {w}"


def test_single_state_continuous():
    m = parse_model("time: continuous\nparams: theta1\nA: [theta1]\nC: [1]")
    s = build_stack(m, 1)
    assert (s.rows, s.cols) == (3, 2)
    assert _texts(s.O[0]) == ["1", "0"]
    assert _texts(s.O[1]) == ["0", "1"]
    assert _texts(s.O[2]) == ["-theta1", "1"]
    assert s.Y0[0] == E_ONE * s.Y0[0]          # output symbol rows
    assert expr_text(s.Y0[0]) == "y1"
    assert expr_text(s.Y0[1]) == "y1'"
    assert s.Y0[2] == E_ZERO                   # state rows carry zeros


def test_continuous_leibniz_rows(product_coupling):
    s = build_stack(product_coupling, 2)
    assert (s.rows, s.cols) == (3 + 4, 6)
    # output block: w-th row mixes C derivatives with Pascal weights
    assert _texts(s.O[0]) == ["u", "0", "0", "0", "0", "0"]
    assert _texts(s.O[1]) == ["u'", "0", "u", "0", "0", "0"]
    assert _texts(s.O[2]) == ["u''", "0", "2*u'", "0", "u", "0"]
    # state block: -A plus identity one block to the right
    assert _texts(s.O[3]) == ["-theta1", "-theta2*u", "1", "0", "0", "0"]
    assert _texts(s.O[4]) == ["-theta3", "1", "0", "1", "0", "0"]
    assert _texts(s.O[5]) == ["0", "-theta2*u'", "-theta1", "-theta2*u",
                              "1", "0"]
    assert _texts(s.O[6]) == ["0", "0", "-theta3", "1", "0", "1"]
    # no B or D: the forced side is zero
    assert all(g == E_ZERO for row in s.G for g in row)


def test_discrete_shift_blocks(henon):
    s = build_stack(henon, 2)
    d = True
    assert (s.rows, s.cols) == (3 + 4, 6)
    # outputs are block-diagonal shifts of C
    assert _texts(s.O[0], d) == ["1", "0", "0", "0", "0", "0"]
    assert _texts(s.O[1], d) == ["0", "0", "1", "0", "0", "0"]
    assert _texts(s.O[2], d) == ["0", "0", "0", "0", "1", "0"]
    # state rows: -A_{k+i} on block i, identity on block i+1, no Pascal mix
    assert _texts(s.O[3], d) == ["-theta1*y[k]", "-theta2", "1", "0", "0", "0"]
    assert _texts(s.O[5], d) == ["0", "0", "-theta1*y[k+1]", "-theta2",
                                 "1", "0"]
    assert _texts(s.O[6], d) == ["0", "0", "-theta3", "0", "0", "1"]
    # forced side holds B_{k+i} on the state rows
    assert _texts(s.G[3], d) == ["1", "0", "0"]
    assert _texts(s.G[4], d) == ["theta4", "0", "0"]
    assert _texts(s.G[5], d) == ["0", "1", "0"]
    # known symbols are the shifted outputs
    assert [expr_text(e, d) for e in s.Y0[:3]] == ["y[k]", "y[k+1]", "y[k+2]"]
    assert s.Y0[3:] == [E_ZERO] * 4


def test_stacked_symbol_lists(air_handling_unit):
    s = build_stack(air_handling_unit, 2)
    assert [v.display() for v in s.X] == ["x1", "x2", "x1'", "x2'",
                                          "x1''", "x2''"]
    assert [v.display() for v in s.U] == ["u1", "u2", "u1'", "u2'",
                                          "u1''", "u2''"]
    assert all(v.kind is Kind.SIGNAL and v.role is Role.STATE for v in s.X)
    assert all(v.role is Role.INPUT for v in s.U)


def test_dimension_formula():
    for m in random_models(12):
        for w in range(3):
            s = build_stack(m, w, size_cap=256)
            assert s.rows == (w + 1) * m.p + w * m.n
            assert s.cols == (w + 1) * m.n
            assert len(s.X) == (w + 1) * m.n
            assert len(s.U) == (w + 1) * m.m
            assert all(len(row) == (w + 1) * m.m for row in s.G)
            assert len(s.Y0) == s.rows


def test_known_side_is_state_free(henon, burgers):
    for model in (henon, burgers):
        s = build_stack(model, 2)
        rows = s.known_side()
        assert len(rows) == s.rows
        states = set(s.X)
        for e in rows:
            assert not (e.indeterminates() & states)


def test_known_side_value(henon):
    s = build_stack(henon, 1)
    # state rows: Y0 zero, G column holds B entries
    assert expr_text(s.known_side()[2], discrete=True) == "u[k]"
    assert expr_text(s.known_side()[3], discrete=True) == "theta4*u[k]"


def test_order_budget():
    m = parse_model("time: continuous\nstates: x1, x2\nparams: theta1\n"
                   "A: [theta1, 0; 0, 1]\nC: [1, 0]")
    with pytest.raises(OrderTooLargeForBudget):
        build_stack(m, 5, size_cap=8)
    with pytest.raises(ValueError):
        build_stack(m, -1)
