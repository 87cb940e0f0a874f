"""Unit tests for the gate IR."""

import pytest

from repro.circuits import gates
from repro.circuits.gates import Gate


class TestGateConstruction:
    def test_basic_fields(self):
        g = Gate("CX", (0, 1))
        assert g.name == "cx"  # normalized to lower case
        assert g.qubits == (0, 1)
        assert g.params == ()

    def test_params_coerced_to_float(self):
        g = Gate("rz", (0,), (1,))
        assert g.params == (1.0,)
        assert isinstance(g.params[0], float)

    def test_duplicate_operands_rejected(self):
        with pytest.raises(ValueError):
            Gate("cx", (3, 3))

    def test_empty_operands_rejected(self):
        with pytest.raises(ValueError):
            Gate("x", ())

    def test_frozen(self):
        g = gates.x(0)
        with pytest.raises(Exception):
            g.name = "y"

    def test_equality_and_hash(self):
        assert gates.cx(0, 1) == gates.cx(0, 1)
        assert gates.cx(0, 1) != gates.cx(1, 0)
        assert hash(gates.h(2)) == hash(gates.h(2))


class TestGateProperties:
    def test_arity(self):
        assert gates.x(0).arity == 1
        assert gates.cx(0, 1).arity == 2
        assert gates.ccx(0, 1, 2).arity == 3

    def test_is_multiqubit(self):
        assert not gates.h(0).is_multiqubit
        assert Gate("cz", (0, 1)).is_multiqubit
        assert gates.ccx(0, 1, 2).is_multiqubit

    def test_is_measurement(self):
        assert gates.measure(0).is_measurement
        assert not gates.x(0).is_measurement

    def test_is_swap(self):
        assert Gate("swap", (0, 1)).is_swap
        assert not gates.cx(0, 1).is_swap


class TestConstructors:
    def test_rotation_param(self):
        assert gates.rx(0.3, 1).params == (0.3,)
        assert gates.cphase(0.7, 0, 1).params == (0.7,)

    def test_str_rendering(self):
        assert str(gates.cx(0, 1)) == "cx 0, 1"
        assert "rz(0.5)" in str(gates.rz(0.5, 2))
