"""Unit tests for the Circuit container."""

import pytest

from repro.circuits import Circuit
from repro.circuits.gates import Gate, ccx, cx, h, measure, rz, x


def ghz(n):
    c = Circuit(n)
    c.append(h(0))
    for i in range(1, n):
        c.append(cx(0, i))
    return c


class TestConstruction:
    def test_empty(self):
        c = Circuit(3)
        assert len(c) == 0
        assert c.depth() == 0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Circuit(0)

    def test_out_of_range_operand(self):
        c = Circuit(2)
        with pytest.raises(IndexError):
            c.append(cx(0, 2))

    def test_from_iterable(self):
        c = Circuit(2, [h(0), cx(0, 1)])
        assert len(c) == 2

    def test_copy_is_independent(self):
        c = ghz(3)
        d = c.copy()
        d.append(x(0))
        assert len(c) == 3
        assert len(d) == 4

    def test_equality(self):
        assert ghz(3) == ghz(3)
        assert ghz(3) != ghz(4)


class TestMetrics:
    def test_depth_serial_chain(self):
        # BV-style: all CX share the ancilla -> fully serial.
        c = Circuit(4)
        for i in range(3):
            c.append(cx(i, 3))
        assert c.depth() == 3

    def test_depth_parallel(self):
        c = Circuit(4, [cx(0, 1), cx(2, 3)])
        assert c.depth() == 1

    def test_layers_structure(self):
        c = Circuit(3, [h(0), h(1), cx(0, 1), x(2)])
        layers = c.layers()
        assert layers[0] == [0, 1, 3]  # h(0), h(1), x(2) all layer 0
        assert layers[1] == [2]

    def test_layers_consistent_with_depth(self):
        c = ghz(6)
        assert len(c.layers()) == c.depth()

    def test_counts_by_arity(self):
        c = Circuit(3, [h(0), cx(0, 1), ccx(0, 1, 2), measure(2)])
        counts = c.counts_by_arity()
        assert counts == {1: 1, 2: 1, 3: 1}  # measurement excluded

    def test_gate_counts_by_name(self):
        c = ghz(4)
        assert c.gate_counts() == {"h": 1, "cx": 3}

class TestTransforms:
    def test_without_measurements(self):
        c = Circuit(2, [h(0), measure(0), measure(1)])
        assert len(c.without_measurements()) == 1

    def test_swap_and_rz_roundtrip_in_container(self):
        c = Circuit(2, [Gate("swap", (0, 1)), rz(0.25, 0)])
        assert c[0].is_swap
        assert c[1].params == (0.25,)
