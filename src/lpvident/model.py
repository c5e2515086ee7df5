"""Model text frontend.

The input is a line-oriented description; `#` starts a comment.  Statements
are `key: value`, separated by newlines or by `;` outside brackets:

    time: continuous            (or discrete)
    states: x1, x2
    inputs: u                   (optional; omitting it means no inputs)
    outputs: y
    params: theta1, theta2
    scheduling: rho             (optional external scheduling signals)
    A: [theta1, theta2*u; 1, 0]
    B: [1; 0]                   (optional, defaults to zero)
    C: [u, 0]
    D: [0]                      (optional, defaults to zero)

Inside a matrix `;` splits rows and `,` splits entries, and a name list
splits on `,`; every split is made outside nested brackets.  Matrix entries
are arithmetic over declared names with + - * / ^ (integer power),
parentheses and rational literals.  Matrices may span lines until the
closing bracket.  Missing `states:`/`outputs:` sections are auto-named
x1../y1.. from the A/C row counts, and a missing `params:` section infers
names of the form theta<digits> used in entries; any other undeclared name
is an error.  Outputs may appear in A and B entries (output-scheduled
quasi-LPV models), not in C or D.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .elimination import left_nullspace
from .errors import (DimensionMismatch, ModelError, ModelSyntaxError,
                     NotAffineInParameters, StateInMatrixEntry,
                     UnknownSymbol)
from .indets import Kind, Role, parameter, signal
from .expr import Expression, expr_text
from .poly import Polynomial

_SECTIONS = ("time", "states", "inputs", "outputs", "params", "scheduling")
_MATRICES = ("A", "B", "C", "D")


@dataclass(frozen=True)
class ParseDiagnostic:
    """A model warning; errors are raised, never collected."""
    code: str
    message: str

    def render(self) -> str:
        return f"warning: {self.message}"


@dataclass
class LpvModel:
    domain: str
    state_names: tuple
    input_names: tuple
    output_names: tuple
    param_names: tuple
    sched_names: tuple
    A: tuple
    B: tuple
    C: tuple
    D: tuple
    warnings: tuple = ()

    @property
    def n(self) -> int:
        return len(self.state_names)

    @property
    def m(self) -> int:
        return len(self.input_names)

    @property
    def p(self) -> int:
        return len(self.output_names)

    @property
    def q(self) -> int:
        return len(self.param_names)

    @property
    def discrete(self) -> bool:
        return self.domain == "discrete"

    def params(self) -> list:
        return [parameter(name, i + 1) for i, name in enumerate(self.param_names)]

    def states(self) -> list:
        return [signal(name, Role.STATE) for name in self.state_names]

    def inputs(self) -> list:
        return [signal(name, Role.INPUT) for name in self.input_names]

    def outputs(self) -> list:
        return [signal(name, Role.OUTPUT) for name in self.output_names]

    def scheduling(self) -> list:
        return [signal(name, Role.SCHEDULING) for name in self.sched_names]


# --- tokenizer ---

_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r]+)|(?P<comment>#[^\n]*)|(?P<nl>\n)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>\d+)"
    r"|(?P<punct>[-+*/^()\[\],;:])|(?P<bad>.)")


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list:
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, col = m.lastgroup, m.start() - line_start + 1
        if kind == "bad":
            raise ModelSyntaxError(f"unexpected character {m.group()!r}", line, col)
        if kind not in ("ws", "comment"):
            toks.append(_Tok(kind, m.group(), line, col))
        if kind == "nl":
            line, line_start = line + 1, m.end()
    return toks


# --- splitting ---

def _split(toks: list, separators: tuple) -> list:
    """Split tokens at the separators outside brackets, dropping the newline
    tokens inside them; empty parts are kept."""
    parts: list = [[]]
    opened = []   # the '[' tokens not yet closed
    for t in toks:
        if t.kind == "punct" and t.text == "[":
            opened.append(t)
        elif t.kind == "punct" and t.text == "]":
            if not opened:
                raise ModelSyntaxError("unbalanced ']'", t.line, t.col)
            opened.pop()
        if not opened and t.text in separators:
            parts.append([])
        elif t.kind != "nl":
            parts[-1].append(t)
    if opened:
        raise ModelSyntaxError("unbalanced '['", opened[0].line, opened[0].col)
    return parts


# --- entry expression parser ---

class _EntryParser:
    def __init__(self, toks: list, symbols: dict, key: _Tok):
        self.toks = toks
        self.i = 0
        self.symbols = symbols
        # where the entry ends; an empty entry at its matrix's key token
        self.end = toks[-1] if toks else key

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _take(self):
        t = self._peek()
        if t is None:
            raise ModelSyntaxError("unexpected end of entry", self.end.line,
                                   self.end.col)
        self.i += 1
        return t

    def _op(self, ops: str):
        """Take the next token if it is one of the operators in ops."""
        t = self._peek()
        if t is not None and t.kind == "punct" and t.text in ops:
            self.i += 1
            return t
        return None

    def parse(self) -> Expression:
        e = self._expr()
        t = self._peek()
        if t is not None:
            raise ModelSyntaxError(f"unexpected token {t.text!r}", t.line, t.col)
        return e

    def _expr(self) -> Expression:
        e = self._term()
        while t := self._op("+-"):
            rhs = self._term()
            e = e + rhs if t.text == "+" else e - rhs
        return e

    def _term(self) -> Expression:
        e = self._factor()
        while t := self._op("*/"):
            rhs = self._factor()
            if t.text == "*":
                e = e * rhs
            else:
                if rhs.is_zero():
                    raise ModelSyntaxError("division by zero in entry", t.line, t.col)
                e = e / rhs
        return e

    def _factor(self) -> Expression:
        if t := self._op("+-"):
            e = self._factor()
            return e if t.text == "+" else -e
        return self._power()

    def _power(self) -> Expression:
        e = self._atom()
        if self._op("^"):
            sign = self._op("+-")
            t = self._take()
            if t.kind != "int":
                raise ModelSyntaxError("exponent must be an integer literal",
                                       t.line, t.col)
            exp = -int(t.text) if sign and sign.text == "-" else int(t.text)
            if exp < 0 and e.is_zero():
                raise ModelSyntaxError("zero to a negative power", t.line, t.col)
            e = e ** exp
        return e

    def _atom(self) -> Expression:
        t = self._take()
        if t.kind == "int":
            return Expression(Polynomial.const(int(t.text)))
        if t.kind == "name":
            if t.text not in self.symbols:
                raise UnknownSymbol(f"undeclared name {t.text!r}", t.line, t.col)
            return Expression.var(self.symbols[t.text])
        if t.kind == "punct" and t.text == "(":
            e = self._expr()
            t2 = self._take()
            if not (t2.kind == "punct" and t2.text == ")"):
                raise ModelSyntaxError("expected ')'", t2.line, t2.col)
            return e
        raise ModelSyntaxError(f"unexpected token {t.text!r}", t.line, t.col)


def _split_matrix(key: _Tok, toks: list):
    """Token span '[ ... ]' of the matrix `key` -> rows of entry tokens."""
    if len(toks) < 2 or not (toks[0].kind == "punct" and toks[0].text == "["):
        t = toks[0] if toks else key
        raise ModelSyntaxError("expected '[' to open matrix", t.line, t.col)
    last = toks[-1]
    if not (last.kind == "punct" and last.text == "]"):
        raise ModelSyntaxError("expected ']' to close matrix", last.line, last.col)
    return [_split(row, (",",)) for row in _split(toks[1:-1], (";",))]


_THETA_RE = re.compile(r"^theta(\d+)$")


def parse_model(text: str) -> LpvModel:
    """Parse and validate; raises on errors, keeps warnings on the model."""
    table: dict = {}
    for st in _split(_tokenize(text), ("\n", ";")):
        if not st:
            continue
        head = st[0]
        if head.kind != "name":
            raise ModelSyntaxError(f"expected statement keyword, got {head.text!r}",
                                   head.line, head.col)
        if len(st) < 2 or not (st[1].kind == "punct" and st[1].text == ":"):
            raise ModelSyntaxError("expected ':' after keyword", head.line, head.col)
        key = head.text
        if key not in _SECTIONS + _MATRICES:
            raise ModelSyntaxError(f"unknown statement {key!r}", head.line, head.col)
        if key in table:
            what = "section" if key in _SECTIONS else "matrix"
            raise ModelSyntaxError(f"duplicate {what} {key!r}", head.line, head.col)
        table[key] = (head, st[2:])

    # time
    if "time" not in table:
        raise ModelSyntaxError("missing 'time:' statement", 1, 1)
    thead, tbody = table["time"]
    if len(tbody) != 1 or tbody[0].kind != "name" or tbody[0].text not in ("continuous", "discrete"):
        raise ModelSyntaxError("time must be 'continuous' or 'discrete'",
                               thead.line, thead.col)
    domain = tbody[0].text

    def name_list(key: str) -> list:
        """(name, token) of each name in the list; [] when it is absent."""
        if key not in table:
            return []
        head, body = table[key]
        parts = _split(body, (",",))
        bad = next((i for i, part in enumerate(parts)
                    if len(part) != 1 or part[0].kind != "name"), None)
        if bad is not None:
            # every part before the bad one is a name and its comma
            rest = body[2 * bad:]
            if not rest:
                raise ModelSyntaxError(f"empty or trailing-comma {key!r} list",
                                       head.line, head.col)
            t, what = ((rest[0], "name") if rest[0].kind != "name"
                       else (rest[1], "','"))
            raise ModelSyntaxError(f"expected {what} in {key!r} list",
                                   t.line, t.col)
        return [(part[0].text, part[0]) for part in parts]

    if "A" not in table:
        raise DimensionMismatch("matrix A is required", 1, 1)
    if "C" not in table:
        raise DimensionMismatch("matrix C is required", 1, 1)

    raw = {k: _split_matrix(head, body) for k, (head, body) in table.items()
           if k in _MATRICES}

    # a made-up name (x1.., y1..) has no token
    states = name_list("states") or [(f"x{i+1}", None) for i in range(len(raw["A"]))]
    outputs = name_list("outputs") or [(f"y{i+1}", None) for i in range(len(raw["C"]))]
    inputs = name_list("inputs")
    scheds = name_list("scheduling")
    params = name_list("params")
    if "params" not in table:
        taken = {nm for nm, _ in states + outputs + inputs + scheds}
        found = {}
        for rows in raw.values():
            for row in rows:
                for entry in row:
                    for t in entry:
                        m = _THETA_RE.match(t.text) if t.kind == "name" else None
                        if m and t.text not in taken:
                            found[t.text] = int(m.group(1))
        params = [(nm, None) for nm in sorted(found, key=found.get)]

    declared = {}
    for group, names in (("state", states), ("input", inputs),
                         ("output", outputs), ("param", params),
                         ("scheduling", scheds)):
        for nm, tok in names:
            if nm in declared:
                # at the later declaration, or at the earlier one when the
                # later name was made up
                first, first_tok = declared[nm]
                at = tok or first_tok
                raise ModelSyntaxError(f"name {nm!r} declared as both {first} "
                                       f"and {group}", at.line, at.col)
            declared[nm] = group, tok

    # the matrices are filled in below, parsed against the model's symbols
    model = LpvModel(domain, *(tuple(nm for nm, _ in names) for names in
                               (states, inputs, outputs, params, scheds)),
                     (), (), (), ())
    symbols = {v.base: v for v in (*model.params(), *model.states(),
                                   *model.inputs(), *model.outputs(),
                                   *model.scheduling())}

    n, m, p = len(states), len(inputs), len(outputs)
    shapes = {"A": (n, n), "B": (n, m), "C": (p, n), "D": (p, m)}

    def parse_matrix(key: str) -> tuple:
        rows_exp, cols_exp = shapes[key]
        if key not in raw:
            return tuple(tuple(Expression(Polynomial())
                               for _ in range(cols_exp)) for _ in range(rows_exp))
        head = table[key][0]
        rows = raw[key]
        if len(rows) != rows_exp:
            raise DimensionMismatch(
                f"matrix {key} has {len(rows)} rows, expected {rows_exp}",
                head.line, head.col)
        out = []
        for row in rows:
            if len(row) != cols_exp:
                raise DimensionMismatch(
                    f"matrix {key} row has {len(row)} entries, expected {cols_exp}",
                    head.line, head.col)
            out.append(tuple(_EntryParser(entry, symbols, head).parse()
                             for entry in row))
        return tuple(out)

    model.A, model.B, model.C, model.D = (parse_matrix(k) for k in _MATRICES)
    model.warnings = tuple(validate_model(model))
    return model


def validate_model(model: LpvModel) -> list:
    """Structural checks: raises the first error, returns the warnings.

    The rank of C is its exact rank over the rational functions of the
    signals, so a deficit is generic, not an accident of sample points.
    """
    params = set(model.params())
    states = set(model.states())
    saw_output = False
    for key in _MATRICES:
        for i, row in enumerate(getattr(model, key)):
            for j, e in enumerate(row):
                vars_ = e.indeterminates()
                if vars_ & states:
                    raise StateInMatrixEntry(
                        f"state appears in {key}[{i+1},{j+1}]; states are not "
                        f"valid scheduling premises (substitute measured signals)")
                if e.num.degree_in(params) > 1 or e.den.degree_in(params) > 0:
                    raise NotAffineInParameters(
                        f"entry {key}[{i+1},{j+1}] is not affine in the parameters")
                if any(v.kind is Kind.SIGNAL and v.order != 0 for v in vars_):
                    raise DimensionMismatch(
                        f"entry {key}[{i+1},{j+1}] uses a shifted or "
                        f"differentiated signal")
                if any(v.kind is Kind.SIGNAL and v.role is Role.OUTPUT
                       for v in vars_):
                    if key in ("C", "D"):
                        raise ModelError(
                            f"output appears in {key}[{i+1},{j+1}]; outputs "
                            f"may appear in A and B, not in C or D")
                    saw_output = True
    warnings = []
    if saw_output:
        warnings.append(ParseDiagnostic(
            "output-premise",
            "outputs appear in matrix entries (output-substituted quasi-LPV); "
            "results rely on measured outputs as premise variables"))
    if model.p and model.n and left_nullspace(model.C).rank < min(model.p, model.n):
        warnings.append(ParseDiagnostic(
            "rank-deficient-C",
            "C has generically deficient rank; some outputs carry no "
            "independent state information"))
    return warnings


def print_model(model: LpvModel) -> str:
    """Canonical text form; parse_model(print_model(m)) reproduces m."""
    lines = [f"time: {model.domain}"]
    lines.append("states: " + ", ".join(model.state_names))
    if model.input_names:
        lines.append("inputs: " + ", ".join(model.input_names))
    lines.append("outputs: " + ", ".join(model.output_names))
    if model.param_names:
        lines.append("params: " + ", ".join(model.param_names))
    if model.sched_names:
        lines.append("scheduling: " + ", ".join(model.sched_names))

    def mat_text(mat: tuple) -> str:
        return "[" + "; ".join(", ".join(expr_text(e) for e in row)
                               for row in mat) + "]"

    lines.append("A: " + mat_text(model.A))
    if model.m:
        lines.append("B: " + mat_text(model.B))
    lines.append("C: " + mat_text(model.C))
    if model.m:
        lines.append("D: " + mat_text(model.D))
    return "\n".join(lines) + "\n"
