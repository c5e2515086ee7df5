"""Indeterminates: cached sort keys, hashing, and key uniqueness."""

import dataclasses

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
        assert a is not b
        assert a == b and hash(a) == hash(b) and a.sort_key == b.sort_key
        assert {a: 1}[b] == 1


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
