"""Typed indeterminates and their canonical order.

Every symbol the pipeline manipulates is one of: a model parameter, a
reference parameter (the tilde copy introduced by symbolic evaluation), or
a signal (input, output, state or scheduling variable at some derivative or
shift order).  The canonical order sorts reference parameters first, then
parameters, then signals grouped by role, so that parameter-only monomials
always rank below signal monomials of equal degree.

Indeterminates are interned: there is one object per (kind, base, index,
role, order), built once with its sort key, so equality and hashing are
object identity.  Constructing an existing one, through the class,
`with_order`, `dataclasses.replace`, copy or pickle, returns the table
entry after one dict lookup.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum


class Kind(IntEnum):
    REF_PARAMETER = 0
    PARAMETER = 1
    SIGNAL = 2


class Role(IntEnum):
    SCHEDULING = 0
    INPUT = 1
    OUTPUT = 2
    STATE = 3


# role tiers continue the kind tiers: ref(0) < param(1) < sched(2) < in(3) < out(4) < state(5)
_ROLE_TIER = {Role.SCHEDULING: 2, Role.INPUT: 3, Role.OUTPUT: 4, Role.STATE: 5}

_REF_NAMES = "abcdefghijklmnopqrstuvwxyz"


# (kind, base, index, role, order) -> the one Indeterminate with those fields;
# IntEnum members hash and compare as their ints, so raw ints find them too
_TABLE: dict = {}


@dataclass(frozen=True, eq=False, init=False)
class Indeterminate:
    kind: Kind
    base: str
    index: int = 0          # 1-based for parameters and reference parameters
    role: Role | None = None
    order: int = 0          # derivative or shift order for signals
    sort_key: tuple = field(init=False, repr=False)

    def __new__(cls, kind, base, index=0, role=None, order=0):
        v = _TABLE.get((kind, base, index, role, order))
        if v is not None:
            return v
        kind = Kind(kind)
        role = None if role is None else Role(role)
        key = ((_ROLE_TIER[role], 0, base, order) if kind is Kind.SIGNAL
               else (int(kind), index, base, 0))
        v = object.__new__(cls)
        v.__dict__.update(kind=kind, base=base, index=index, role=role,
                          order=order, sort_key=key)
        return _TABLE.setdefault((kind, base, index, role, order), v)

    def __reduce__(self):
        return Indeterminate, (self.kind, self.base, self.index, self.role,
                               self.order)

    def with_order(self, order: int) -> "Indeterminate":
        return Indeterminate(self.kind, self.base, self.index, self.role, order)

    def display(self, discrete: bool = False) -> str:
        if self.kind is not Kind.SIGNAL:
            return self.base
        if discrete:
            return f"{self.base}[k]" if self.order == 0 else f"{self.base}[k+{self.order}]"
        if self.order == 0:
            return self.base
        if self.order <= 3:
            return self.base + "'" * self.order
        return f"{self.base}^({self.order})"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return self.display()


def parameter(name: str, index: int) -> Indeterminate:
    return Indeterminate(Kind.PARAMETER, name, index)


def ref_parameter(index: int) -> Indeterminate:
    name = _REF_NAMES[index - 1] if index <= len(_REF_NAMES) else f"ref{index}"
    return Indeterminate(Kind.REF_PARAMETER, name, index)


def signal(base: str, role: Role, order: int = 0) -> Indeterminate:
    return Indeterminate(Kind.SIGNAL, base, 0, role, order)
