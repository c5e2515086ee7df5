"""Typed indeterminates and their canonical order.

Every symbol the pipeline manipulates is one of: a model parameter, a
reference parameter (the tilde copy introduced by symbolic evaluation), or
a signal (input, output, state or scheduling variable at some derivative or
shift order).  The canonical order sorts reference parameters first, then
parameters, then signals grouped by role, so that parameter-only monomials
always rank below signal monomials of equal degree.

An indeterminate computes its sort key, and the hash of that key, once at
construction: the key is a function of the fields, so equal indeterminates
have equal keys and equal hashes.
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


@dataclass(frozen=True)
class Indeterminate:
    kind: Kind
    base: str
    index: int = 0          # 1-based for parameters and reference parameters
    role: Role | None = None
    order: int = 0          # derivative or shift order for signals
    sort_key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind is Kind.SIGNAL:
            key = (_ROLE_TIER[self.role], 0, self.base, self.order)
        else:
            key = (int(self.kind), self.index, self.base, 0)
        object.__setattr__(self, "sort_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

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
