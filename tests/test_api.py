"""The public names of the package."""

import pytest

import regencodes
import regencodes.harness
from regencodes import errors, gf
from regencodes.counting import OpCounter, charge


@pytest.mark.parametrize("module", [regencodes, regencodes.harness], ids=lambda m: m.__name__)
def test_every_public_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert getattr(module, name, None) is not None, name
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_scalar_wrapper_is_gone():
    # field values are plain ints; the scalar API is the Field methods
    for name in ("Elem", "arith", "inv"):
        assert not hasattr(regencodes, name), name
        assert not hasattr(gf, name), name
        assert name not in regencodes.__all__
    assert not hasattr(errors, "FieldMismatch")
    assert not hasattr(gf.Field, "elem")


def test_charge_accumulates_and_a_missing_counter_costs_nothing():
    counter = OpCounter()
    charge(counter, 3, 4)
    charge(counter, mul=5)
    charge(counter, add=2)
    assert (counter.mul, counter.add) == (8, 6)
    charge(None, 7, 7)
    assert not hasattr(counter, "count_mul") and not hasattr(counter, "count_add")
