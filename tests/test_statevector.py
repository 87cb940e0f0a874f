"""Unit tests for the statevector simulator."""

import math

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.circuits.gate_library import gate_unitary, is_unitary_gate
from repro.circuits.gates import (
    Gate, ccx, cphase, cx, h, measure, rx, rz, rzz, s, t, x, y, z,
)
from repro.sim import Statevector, circuit_unitary, run


class TestGateLibrary:
    @pytest.mark.parametrize("gate", [
        x(0), y(0), z(0), h(0), s(0), t(0), rx(0.3, 0),
        Gate("ry", (0,), (0.7,)), rz(1.1, 0), cx(0, 1), Gate("cz", (0, 1)),
        Gate("swap", (0, 1)), ccx(0, 1, 2), cphase(0.5, 0, 1), rzz(0.4, 0, 1),
    ])
    def test_all_matrices_unitary(self, gate):
        u = gate_unitary(gate)
        dim = 2 ** gate.arity
        assert u.shape == (dim, dim)
        assert np.allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)

    def test_unknown_gate(self):
        with pytest.raises(KeyError):
            gate_unitary(Gate("nope", (0,)))
        assert not is_unitary_gate(Gate("nope", (0,)))
        assert not is_unitary_gate(measure(0))

    def test_sdg_tdg_inverses(self):
        s_mat = gate_unitary(Gate("s", (0,)))
        sdg = gate_unitary(Gate("sdg", (0,)))
        assert np.allclose(s_mat @ sdg, np.eye(2))
        t_mat = gate_unitary(Gate("t", (0,)))
        tdg = gate_unitary(Gate("tdg", (0,)))
        assert np.allclose(t_mat @ tdg, np.eye(2))


class TestStatevectorBasics:
    def test_initial_state(self):
        sv = Statevector(2)
        assert sv.probability_of("00") == pytest.approx(1.0)

    def test_from_bitstring_big_endian(self):
        sv = Statevector.from_bitstring("10")
        # qubit 0 is MSB: |10> has index 2.
        assert sv.state[2] == pytest.approx(1.0)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            Statevector(25)

    def test_bad_state_shape(self):
        with pytest.raises(ValueError):
            Statevector(2, np.zeros(3))

    def test_x_flips(self):
        sv = Statevector(1)
        sv.apply_gate(x(0))
        assert sv.most_likely_bitstring() == "1"

    def test_h_superposition(self):
        sv = Statevector(1)
        sv.apply_gate(h(0))
        probs = sv.probabilities()
        assert probs[0] == pytest.approx(0.5)
        assert probs[1] == pytest.approx(0.5)

    def test_cx_control_semantics(self):
        sv = Statevector.from_bitstring("10")
        sv.apply_gate(cx(0, 1))
        assert sv.most_likely_bitstring() == "11"
        sv = Statevector.from_bitstring("01")
        sv.apply_gate(cx(0, 1))
        assert sv.most_likely_bitstring() == "01"

    def test_toffoli_semantics(self):
        sv = Statevector.from_bitstring("110")
        sv.apply_gate(ccx(0, 1, 2))
        assert sv.most_likely_bitstring() == "111"
        sv = Statevector.from_bitstring("100")
        sv.apply_gate(ccx(0, 1, 2))
        assert sv.most_likely_bitstring() == "100"

    def test_swap_semantics(self):
        sv = Statevector.from_bitstring("10")
        sv.apply_gate(Gate("swap", (0, 1)))
        assert sv.most_likely_bitstring() == "01"

    def test_measurement_is_noop_on_amplitudes(self):
        sv = Statevector.from_bitstring("1")
        sv.apply_gate(measure(0))
        assert sv.most_likely_bitstring() == "1"

    def test_non_adjacent_operands(self):
        sv = Statevector.from_bitstring("100")
        sv.apply_gate(cx(0, 2))
        assert sv.most_likely_bitstring() == "101"

    def test_reversed_operand_order(self):
        sv = Statevector.from_bitstring("010")
        sv.apply_gate(cx(1, 0))
        assert sv.most_likely_bitstring() == "110"


class TestBellAndGHZ:
    def test_bell_state(self):
        c = Circuit(2, [h(0), cx(0, 1)])
        sv = run(c)
        probs = sv.probabilities()
        assert probs[0] == pytest.approx(0.5)
        assert probs[3] == pytest.approx(0.5)

    def test_ghz_marginals(self):
        c = Circuit(3, [h(0), cx(0, 1), cx(1, 2)])
        sv = run(c)
        marginal = sv.marginal_probabilities([0, 2])
        assert marginal["00"] == pytest.approx(0.5)
        assert marginal["11"] == pytest.approx(0.5)

    def test_fidelity(self):
        a = run(Circuit(2, [h(0), cx(0, 1)]))
        b = run(Circuit(2, [h(0), cx(0, 1)]))
        assert a.fidelity_with(b) == pytest.approx(1.0)
        c = run(Circuit(2, []))  # |00> overlaps the Bell state at 1/2
        assert a.fidelity_with(c) == pytest.approx(0.5)
        d = run(Circuit(2, [x(0)]))  # |10> is orthogonal to the Bell state
        assert a.fidelity_with(d) == pytest.approx(0.0)

    def test_fidelity_size_mismatch(self):
        with pytest.raises(ValueError):
            Statevector(1).fidelity_with(Statevector(2))


class TestCircuitUnitary:
    def test_cx_unitary(self):
        u = circuit_unitary(Circuit(2, [cx(0, 1)]))
        expected = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
            dtype=complex,
        )
        assert np.allclose(u, expected)

    def test_rz_phase_convention(self):
        theta = 0.8
        u = circuit_unitary(Circuit(1, [rz(theta, 0)]))
        assert u[0, 0] == pytest.approx(np.exp(-1j * theta / 2))
        assert u[1, 1] == pytest.approx(np.exp(1j * theta / 2))

    def test_rzz_diagonal(self):
        theta = 0.6
        u = circuit_unitary(Circuit(2, [rzz(theta, 0, 1)]))
        diag = np.diag(u)
        assert diag[0] == pytest.approx(np.exp(-1j * theta / 2))
        assert diag[3] == pytest.approx(np.exp(-1j * theta / 2))
        assert diag[1] == pytest.approx(np.exp(1j * theta / 2))

    def test_size_guard(self):
        with pytest.raises(ValueError):
            circuit_unitary(Circuit(11))

    def test_run_initial_bits_length_check(self):
        with pytest.raises(ValueError):
            run(Circuit(3), initial_bits="01")
