"""Indeterminates: interning, identity hashing, sort keys and key
uniqueness."""

import copy
import dataclasses
import pickle

from conftest import load_model
from lpvident.indets import (Indeterminate, Kind, Role, parameter,
                             ref_parameter, signal)

MODELS = ("air_handling_unit", "burgers_discretized", "henon",
          "product_coupling", "shared_gain")


def test_equal_instances_hash_equal():
    pairs = [(parameter("theta1", 1), parameter("theta1", 1)),
             (ref_parameter(2), Indeterminate(Kind.REF_PARAMETER, "b", 2)),
             (signal("y", Role.OUTPUT, 2),
              signal("y", Role.OUTPUT).with_order(2))]
    for a, b in pairs:
        assert a is b
        assert a == b and hash(a) == hash(b) and a.sort_key == b.sort_key
        assert {a: 1}[b] == 1


def test_every_constructor_returns_the_interned_object():
    y2 = signal("y", Role.OUTPUT, 2)
    y = signal("y", Role.OUTPUT)
    assert y2 is y.with_order(2)
    assert y2 is dataclasses.replace(y, order=2)
    assert y2 is Indeterminate(Kind.SIGNAL, "y", 0, Role.OUTPUT, 2)
    assert y2 is Indeterminate(2, "y", 0, 2, 2)  # raw-int kind and role
    th = parameter("theta1", 1)
    assert th is Indeterminate(1, "theta1", 1)
    for v in (y2, th, ref_parameter(3)):
        assert copy.copy(v) is v
        assert copy.deepcopy(v) is v
        assert copy.deepcopy([v, (v, 1)])[1][0] is v
        assert pickle.loads(pickle.dumps(v)) is v
    # the table entry keeps its enum fields whatever the caller passed
    raw = Indeterminate(2, "z", 0, 3, 1)
    assert type(raw.kind) is Kind and type(raw.role) is Role
    assert raw is signal("z", Role.STATE, 1)


def test_new_order_gives_the_new_key():
    y = signal("y", Role.OUTPUT)
    for z in (y.with_order(3), dataclasses.replace(y, order=3)):
        assert z.order == 3
        assert z.sort_key == (4, 0, "y", 3)
        assert z == signal("y", Role.OUTPUT, 3)
        assert hash(z) == hash(signal("y", Role.OUTPUT, 3))
        assert z != y and z.sort_key != y.sort_key
    th = dataclasses.replace(parameter("theta1", 1), index=2)
    assert th.sort_key == (1, 2, "theta1", 0)
    assert th.sort_key == parameter("theta1", 2).sort_key


def test_sort_key_unique_across_shipped_models():
    indets = set()
    for name in MODELS:
        m = load_model(name)
        indets.update(m.params())
        indets.update(ref_parameter(p.index) for p in m.params())
        for s in m.states() + m.inputs() + m.outputs() + m.scheduling():
            indets.update(s.with_order(k) for k in range(4))
    keys = {v.sort_key for v in indets}
    assert len(keys) == len(indets)
    for a in indets:
        for b in indets:
            assert (a == b) == (a.sort_key == b.sort_key)
