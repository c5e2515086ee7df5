"""Left null-space and rank over the rational-function field."""

import random
from fractions import Fraction

from conftest import fraction_rank, random_models
from lpvident import elimination
from lpvident.elimination import (_bareiss_echelon, _normalize_row,
                                  _pivot_weight, _to_poly_rows, left_nullspace,
                                  rank_rational)
from lpvident.expr import (E_ONE, E_ZERO, Expression, clear_denominators,
                           expr_text)
from lpvident.indets import Role, parameter, signal
from lpvident.model import parse_model
from lpvident.poly import ONE, ZERO, Polynomial, exact_div, poly_gcd
from lpvident.stacking import build_stack


def _annihilates(omega, matrix):
    ncols = len(matrix[0])
    for j in range(ncols):
        acc = E_ZERO
        for i, w in enumerate(omega):
            acc = acc + w * matrix[i][j]
        if not acc.is_zero():
            return False
    return True


def test_single_state_row():
    m = parse_model("time: continuous\nparams: theta1\nA: [theta1]\nC: [1]")
    s = build_stack(m, 1)
    basis = left_nullspace(s.O)
    assert basis.rank == 2
    assert basis.dimension == 1
    assert [expr_text(e) for e in basis.rows[0]] == ["theta1", "-1", "1"]


def test_zero_row_gives_unit_vector():
    zero = E_ZERO
    one = E_ONE
    theta = parse_model("time: continuous\nparams: theta1\n"
                        "A: [theta1]\nC: [1]").A[0][0]
    M = [[one, theta], [zero, zero], [theta, one]]
    basis = left_nullspace(M)
    unit = [zero, one, zero]
    assert any(row == unit for row in basis.rows)


def test_empty_and_full_rank():
    assert left_nullspace([]).rank == 0
    one = E_ONE
    assert left_nullspace([[one]]).rank == 1
    assert left_nullspace([[one, one]]).dimension == 0


def test_product_coupling_rank(product_coupling):
    s = build_stack(product_coupling, 2)
    basis = left_nullspace(s.O)
    assert s.rows == 7
    assert basis.rank == 6
    assert basis.dimension == 1
    assert _annihilates(basis.rows[0], s.O)


def test_rank_matches_rational_specialization(goldens):
    rng = random.Random(7)
    for model in goldens.values():
        s = build_stack(model, 2)
        rk = left_nullspace(s.O).rank
        indets = set()
        for row in s.O:
            for e in row:
                indets |= e.indeterminates()
        env = {v: Fraction(rng.randint(2, 97), rng.randint(1, 5))
               for v in sorted(indets, key=lambda v: v.sort_key)}
        numeric = [[e.evaluate(env) for e in row] for row in s.O]
        assert rank_rational(numeric) == rk


def test_rank_rational_basics():
    assert rank_rational([[1, 2], [2, 4]]) == 1
    assert rank_rational([[1, 0], [0, 1], [1, 1]]) == 2
    assert rank_rational([[0, 0]]) == 0
    # float and str entries are read exactly: 0.3 is not 3 * 0.1 in binary
    assert rank_rational([[0.5, "1/3"], [1.5, 1]]) == 1
    assert rank_rational([[0.1, 0.2], [1, 2]]) == 1
    assert rank_rational([[0.1, 0.3], [1, 3]]) == 2


def _rational_matrix(rng, rows, cols, rank):
    """A rows x cols matrix of small fractions of rank at most `rank`,
    some rows zero."""
    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    basis = [[frac() for _ in range(cols)] for _ in range(rank)]
    out = []
    for _ in range(rows):
        if not basis or rng.random() < 0.15:
            out.append([Fraction(0)] * cols)
            continue
        weights = [frac() for _ in basis]
        out.append([sum((w * b[j] for w, b in zip(weights, basis)),
                        Fraction(0)) for j in range(cols)])
    return out


def test_rank_rational_matches_fraction_elimination():
    rng = random.Random(41)
    shapes = [(6, 3), (3, 6), (5, 5), (9, 4), (1, 7), (7, 1)]
    cases = [[], [[]], [[0, 0, 0]], [[Fraction(1, 3), 2], [1, 6]]]
    for rows, cols in shapes:
        for rank in range(0, min(rows, cols) + 1):
            cases.append(_rational_matrix(rng, rows, cols, rank))
            # ints and mixed int/Fraction entries
            cases.append([[rng.randint(-5, 5) for _ in range(cols)]
                          for _ in range(rows)])
    for M in cases:
        assert rank_rational(M) == fraction_rank(M), M


def test_nullspace_annihilates_goldens(goldens):
    for model in goldens.values():
        for w in (1, 2):
            s = build_stack(model, w)
            basis = left_nullspace(s.O)
            assert basis.dimension == s.rows - basis.rank
            for omega in basis.rows:
                assert _annihilates(omega, s.O)


def test_nullspace_annihilates_random_models():
    checked = 0
    for model in random_models(50):
        s = build_stack(model, 1, size_cap=256)
        basis = left_nullspace(s.O)
        assert basis.dimension == s.rows - basis.rank
        for omega in basis.rows:
            assert _annihilates(omega, s.O)
            assert any(not e.is_zero() for e in omega)
        checked += basis.dimension
    assert checked > 0


def test_normalized_rows_are_polynomial_and_signed(goldens):
    for model in goldens.values():
        s = build_stack(model, 2)
        for omega in left_nullspace(s.O).rows:
            for e in omega:
                assert e.den.total_degree() == 0   # denominators cleared
            lead = next(e for e in omega if not e.is_zero())
            text = expr_text(lead, discrete=model.discrete)
            assert not text.startswith("-")


def test_deterministic_output(product_coupling):
    s = build_stack(product_coupling, 2)
    a = left_nullspace(s.O)
    b = left_nullspace(s.O)
    assert [[expr_text(e) for e in row] for row in a.rows] == \
           [[expr_text(e) for e in row] for row in b.rows]


def _field_nullspace_rows(matrix):
    """Oracle: back-substitution in the rational-function field, one
    Expression per operation, from omega[f] = 1."""
    nrows = len(matrix)
    rows, scales = _to_poly_rows(matrix)
    T = [[rows[i][j] for i in range(nrows)] for j in range(len(matrix[0]))]
    pivots, _ = _bareiss_echelon(T)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for f in range(nrows):
        if f in pivot_cols:
            continue
        omega = [E_ZERO] * nrows
        omega[f] = E_ONE
        for r, c in reversed(pivots):
            acc = E_ZERO
            for j in range(c + 1, nrows):
                acc = acc + Expression(T[r][j]) * omega[j]
            omega[c] = -acc / Expression(T[r][c])
        omega = [w * Expression(s) for w, s in zip(omega, scales)]
        cleared, _ = clear_denominators(omega)
        basis.append(_normalize_row(cleared))
    return basis


def _hand_built_matrix():
    # rational entries, rank 3 with five rows: a null space of dimension 2
    th, u = Expression.var(parameter("theta", 1)), Expression.var(
        signal("u", Role.INPUT))
    a, b = th / (u - 1), E_ONE / u
    return [[a, E_ONE, b],
            [E_ONE, u, th],
            [a + 1, u + 1, b + th],
            [th * u, E_ONE / (th + 1), E_ZERO],
            [E_ZERO, E_ZERO, E_ZERO]]


def test_backsubstitution_matches_field_oracle(goldens):
    matrices = [build_stack(model, w).O
                for model in goldens.values() for w in (1, 2, 3)]
    matrices += [build_stack(model, 1, size_cap=256).O
                 for model in random_models(50)]
    matrices.append(_hand_built_matrix())
    for M in matrices:
        assert left_nullspace(M).rows == _field_nullspace_rows(M)


def test_hand_built_nullspace_has_dimension_two():
    M = _hand_built_matrix()
    basis = left_nullspace(M)
    assert (basis.rank, basis.dimension) == (3, 2)
    for omega in basis.rows:
        assert _annihilates(omega, M)


def _dense_bareiss(M):
    """Oracle: the Bareiss update on every entry, zero factors included."""
    rows, cols = len(M), len(M[0])
    prev, pivots, r = ONE, [], 0
    for c in range(cols):
        if r >= rows:
            break
        cand = [i for i in range(r, rows) if not M[i][c].is_zero()]
        if not cand:
            continue
        best = min(cand, key=lambda i: _pivot_weight(M[i][c]))
        M[r], M[best] = M[best], M[r]
        piv = M[r][c]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                num = piv * M[i][j] - M[i][c] * M[r][j]
                M[i][j] = exact_div(num, prev) if prev != ONE else num
            M[i][c] = ZERO
        pivots.append((r, c))
        prev = piv
        r += 1
    return pivots, len(pivots)


def _column_order_normalize(row):
    """Oracle: the content gcd folded in column order."""
    content = ZERO
    for p in row:
        content = poly_gcd(content, p)
    row = [exact_div(p, content) if not p.is_zero() else p for p in row]
    return _normalize_row(row)


def _polynomial_matrices(goldens):
    out = [build_stack(model, w).O
           for model in goldens.values() for w in (1, 2, 3)]
    out += [build_stack(model, 1, size_cap=256).O
            for model in random_models(30)]
    out.append(_hand_built_matrix())
    return [_to_poly_rows(M)[0] for M in out]


def test_sparse_bareiss_update_matches_dense_oracle(goldens):
    for M in _polynomial_matrices(goldens):
        T = [list(col) for col in zip(*M)]
        T_dense = [list(col) for col in T]
        assert _bareiss_echelon(T) == _dense_bareiss(T_dense)
        assert T == T_dense


def test_shortest_first_content_matches_column_order(goldens):
    checked = 0
    for M in _polynomial_matrices(goldens):
        for row in M:
            if all(p.is_zero() for p in row):
                continue
            # a common factor makes the content nontrivial
            for f in (ONE, Polynomial.var(parameter("theta", 1)) + 1):
                scaled = [p * f for p in row]
                assert _normalize_row(scaled) == \
                    _column_order_normalize(scaled)
                checked += 1
    assert checked > 0


def _bareiss_only(monkeypatch, matrix):
    with monkeypatch.context() as m:
        m.setattr(elimination, "_full_row_rank_at_a_point", lambda M: False)
        return left_nullspace(matrix)


def test_point_rank_falls_through_to_bareiss(monkeypatch):
    # the fixed point binds the first indeterminate in canonical order to
    # 48271, and the first two matrices hold u alone: at that point the first
    # has rank 1 and the second a vanishing denominator, while the third is
    # rank-deficient everywhere; each falls through and matches Bareiss alone
    u, v = (Expression.var(signal(b, Role.INPUT)) for b in ("u", "v"))
    one = E_ONE
    drops = [[u - 48271, u], [E_ZERO, one]]
    pole = [[one / (u - 48271), one], [one, u]]
    deficient = [[u, u * v], [v, v * v]]
    assert not elimination._full_row_rank_at_a_point(drops)
    assert not elimination._full_row_rank_at_a_point(pole)
    assert not elimination._full_row_rank_at_a_point(deficient)
    for matrix, rank in ((drops, 2), (pole, 2), (deficient, 1)):
        want = _bareiss_only(monkeypatch, matrix)
        got = left_nullspace(matrix)
        assert (got.rows, got.rank, got.dimension) == \
               (want.rows, want.rank, want.dimension)
        assert got.rank == rank and got.dimension == 2 - rank


def test_point_rank_certifies_empty_null_spaces(goldens, monkeypatch):
    # every stack with no more rows than columns and full row rank is
    # certified at the point, with Bareiss's rank and an empty basis
    certified = 0
    for model in goldens.values():
        for w in range(4):
            O = build_stack(model, w).O
            want = _bareiss_only(monkeypatch, O)
            if want.dimension == 0 and len(O) <= len(O[0]):
                assert elimination._full_row_rank_at_a_point(O)
                certified += 1
            got = left_nullspace(O)
            assert (got.rows, got.rank, got.dimension) == \
                   (want.rows, want.rank, want.dimension)
    assert certified >= 5
