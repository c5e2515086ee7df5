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


def is_groebner(basis: list) -> bool:
    """Buchberger's criterion: every S-polynomial of basis members reduces
    to zero.  The oracle the Groebner tests check bases against."""
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = s_polynomial(basis[i], basis[j])
            if not reduce_gpoly(s, basis).is_zero():
                return False
    return True


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
