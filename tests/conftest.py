"""Shared fixtures: the golden model corpus and a seeded model generator."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from lpvident.groebner import reduce_gpoly, s_polynomial
from lpvident.model import parse_model

_MODELS = Path(__file__).resolve().parent.parent / "models"

GOLDEN_NAMES = ("product_coupling", "shared_gain", "air_handling_unit",
                "henon", "burgers_discretized")


def model_text(name: str) -> str:
    return (_MODELS / f"{name}.lpv").read_text(encoding="utf-8")


def model_path(name: str) -> Path:
    return _MODELS / f"{name}.lpv"


# discrete Chain(4): tridiagonal A with diagonal theta_k*u, super-diagonal
# theta5..theta7 and sub-diagonal 1, B = e1, C = e1^T; every parameter is
# Global
CHAIN4_DISCRETE = """time: discrete
states: x1, x2, x3, x4
inputs: u
outputs: y
params: theta1, theta2, theta3, theta4, theta5, theta6, theta7
A: [theta1*u, theta5, 0, 0; 1, theta2*u, theta6, 0; 0, 1, theta3*u, theta7; \
0, 0, 1, theta4*u]
B: [1; 0; 0; 0]
C: [1, 0, 0, 0]
"""


def chain_model(n: int, domain: str):
    """Chain(n, domain): tridiagonal A with diagonal -theta_k*u - 1
    (continuous) or theta_k*u (discrete), super-diagonal
    theta_{n+1}..theta_{2n-1} and sub-diagonal 1, B = e1, C = e1^T."""
    params = [f"theta{k}" for k in range(1, 2 * n)]
    rows = []
    for i in range(n):
        row = ["0"] * n
        row[i] = (f"-{params[i]}*u - 1" if domain == "continuous"
                  else f"{params[i]}*u")
        if i + 1 < n:
            row[i + 1] = params[n + i]
        if i:
            row[i - 1] = "1"
        rows.append(", ".join(row))
    e1 = ["1"] + ["0"] * (n - 1)
    return parse_model(
        f"time: {domain}\n"
        f"states: {', '.join(f'x{i}' for i in range(1, n + 1))}\n"
        f"inputs: u\noutputs: y\nparams: {', '.join(params)}\n"
        f"A: [{'; '.join(rows)}]\nB: [{'; '.join(e1)}]\n"
        f"C: [{', '.join(e1)}]\n")


# entries that hold inputs, outputs (in A and B only) and scheduling
# signals, rational entries and a nonzero D; "{time}" takes either domain
SIGNAL_MODEL_TEXTS = (
    """time: {time}
states: x1, x2
inputs: u, v
outputs: y1, y2
scheduling: r
params: theta1, theta2, theta3
A: [theta1/(u-2), r*y1; y2 + theta2, theta3*v/(r+1)]
B: [u, theta1; y1/(1+r^2), 1]
C: [u, v; 1, r/(v-3)]
D: [v, 0; theta2, u^2]
""",
    """time: {time}
states: x1
inputs: u
outputs: y
scheduling: r
params: theta1, theta2
A: [theta1*y/(r-1) + theta2]
B: [u*r]
C: [1/(u+2)]
D: [u - theta2]
""",
)


def signal_models() -> list:
    """SIGNAL_MODEL_TEXTS in both time domains."""
    return [parse_model(text.format(time=time)) for text in SIGNAL_MODEL_TEXTS
            for time in ("continuous", "discrete")]


def rational_models() -> list:
    """SIGNAL_MODEL_TEXTS[1] in both time domains: non-constant
    denominators that every command runs through within a second."""
    return [parse_model(SIGNAL_MODEL_TEXTS[1].format(time=time))
            for time in ("continuous", "discrete")]


def is_groebner(basis: list) -> bool:
    """Buchberger's criterion: every S-polynomial of basis members reduces
    to zero.  The oracle the Groebner tests check bases against."""
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = s_polynomial(basis[i], basis[j])
            if not reduce_gpoly(s, basis).is_zero():
                return False
    return True


def is_canonical_coefficient(c) -> bool:
    """The coefficient form of `Polynomial.terms` and of numeric GPoly
    terms: a nonzero int, or a Fraction whose denominator is above 1 (never
    an integer-valued Fraction, a bool or a float)."""
    return ((type(c) is int and c != 0)
            or (type(c) is Fraction and c.denominator > 1))


def fraction_rank(rows: list) -> int:
    """Rank by Gaussian elimination over Fraction: the oracle that
    `rank_rational` and the Jacobian rank test are checked against."""
    M = [list(map(Fraction, row)) for row in rows]
    nr = len(M)
    nc = len(M[0]) if nr else 0
    rank = 0
    for c in range(nc):
        piv = next((i for i in range(rank, nr) if M[i][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        pr = M[rank]
        for i in range(rank + 1, nr):
            if M[i][c]:
                f = M[i][c] / pr[c]
                M[i] = [a - f * b for a, b in zip(M[i], pr)]
        rank += 1
    return rank


def load_model(name: str):
    return parse_model(model_text(name))


@pytest.fixture(scope="session")
def product_coupling():
    return load_model("product_coupling")


@pytest.fixture(scope="session")
def shared_gain():
    return load_model("shared_gain")


@pytest.fixture(scope="session")
def air_handling_unit():
    return load_model("air_handling_unit")


@pytest.fixture(scope="session")
def henon():
    return load_model("henon")


@pytest.fixture(scope="session")
def burgers():
    return load_model("burgers_discretized")


@pytest.fixture(scope="session")
def goldens():
    return {name: load_model(name) for name in GOLDEN_NAMES}


def _coef(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def random_model_text(rng: random.Random) -> str:
    """A small random model: n <= 2, m, p <= 2, entries affine in the
    parameters with rational coefficients, either time domain."""
    domain = rng.choice(("continuous", "discrete"))
    n = rng.randint(1, 2)
    m = rng.randint(0, 2)
    p = rng.randint(1, 2)
    q = rng.randint(1, 2)
    params = [f"theta{j + 1}" for j in range(q)]

    def entry() -> str:
        parts = []
        c = _coef(rng)
        if c:
            parts.append(f"({c})")
        if rng.random() < 0.7:
            a = _coef(rng)
            if a:
                parts.append(f"({a})*{rng.choice(params)}")
        return " + ".join(parts) if parts else "0"

    def matrix(rows: int, cols: int) -> str:
        return "[" + "; ".join(", ".join(entry() for _ in range(cols))
                               for _ in range(rows)) + "]"

    lines = [f"time: {domain}",
             "states: " + ", ".join(f"x{i + 1}" for i in range(n))]
    if m:
        lines.append("inputs: " + ", ".join(f"u{i + 1}" for i in range(m)))
    lines.append("outputs: " + ", ".join(f"y{i + 1}" for i in range(p)))
    lines.append("params: " + ", ".join(params))
    lines.append(f"A: {matrix(n, n)}")
    if m:
        lines.append(f"B: {matrix(n, m)}")
    lines.append(f"C: {matrix(p, n)}")
    if m and rng.random() < 0.5:
        lines.append(f"D: {matrix(p, m)}")
    return "\n".join(lines) + "\n"


def random_models(count: int, seed: int = 20260815) -> list:
    rng = random.Random(seed)
    return [parse_model(random_model_text(rng)) for _ in range(count)]
