"""Round-trip tests for the OpenQASM interchange."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, from_qasm, to_qasm
from repro.circuits.gates import Gate, ccx, cphase, cx, h, measure, rz
from repro.workloads import bernstein_vazirani, cuccaro_adder, qft_adder


class TestExport:
    def test_header_and_register(self):
        text = to_qasm(Circuit(3, [h(0)]))
        assert "OPENQASM 2.0;" in text
        assert "qreg q[3];" in text
        assert "h q[0];" in text

    def test_parameterized(self):
        text = to_qasm(Circuit(1, [rz(0.5, 0)]))
        assert "rz(0.5)" in text

    def test_cphase_renamed(self):
        text = to_qasm(Circuit(2, [cphase(0.25, 0, 1)]))
        assert "cp(0.25) q[0],q[1];" in text

    def test_measure_has_creg(self):
        text = to_qasm(Circuit(2, [measure(1)]))
        assert "creg c[2];" in text
        assert "measure q[1] -> c[1];" in text


class TestRoundTrip:
    @pytest.mark.parametrize("circuit", [
        Circuit(3, [h(0), cx(0, 1), ccx(0, 1, 2), Gate("swap", (1, 2))]),
        Circuit(2, [rz(0.125, 0), cphase(1.5, 0, 1)]),
        bernstein_vazirani(6),
        cuccaro_adder(2),
        qft_adder(2),
    ])
    def test_roundtrip_identity(self, circuit):
        assert from_qasm(to_qasm(circuit)) == circuit

    def test_roundtrip_with_measurement(self):
        circuit = Circuit(2, [h(0), measure(0), measure(1)])
        assert from_qasm(to_qasm(circuit)) == circuit


class TestImport:
    def test_comments_and_blankline_skipped(self):
        text = """OPENQASM 2.0;
include "qelib1.inc";
// a comment
qreg q[2];

cx q[0],q[1];  // trailing comment
"""
        circuit = from_qasm(text)
        assert len(circuit) == 1
        assert circuit[0].name == "cx"

    def test_missing_qreg_rejected(self):
        with pytest.raises(ValueError):
            from_qasm("OPENQASM 2.0;\nh q[0];")

    def test_garbage_line_rejected(self):
        with pytest.raises(ValueError):
            from_qasm("qreg q[1];\n???;")

    def test_alias_names_normalized(self):
        circuit = from_qasm("qreg q[2];\ncu1(0.5) q[0],q[1];")
        assert circuit[0].name == "cphase"


class TestRoundTripProperty:
    """`from_qasm(to_qasm(c)) == c` over *generated* circuits, not just
    the hand-picked examples above — the interchange contract behind
    content-addressed circuit uploads (the digest of a round-tripped
    circuit must equal the original's)."""

    @st.composite
    @staticmethod
    def circuits(draw, max_qubits=6, max_gates=14):
        num_qubits = draw(st.integers(3, max_qubits))
        gates = []
        for _ in range(draw(st.integers(0, max_gates))):
            kind = draw(st.integers(0, 5))
            qubits = draw(st.lists(st.integers(0, num_qubits - 1),
                                   min_size=3, max_size=3, unique=True))
            angle = draw(st.floats(-6.0, 6.0,
                                   allow_nan=False, allow_infinity=False))
            gates.append([h(qubits[0]),
                          rz(angle, qubits[0]),
                          cx(qubits[0], qubits[1]),
                          ccx(*qubits),
                          Gate("swap", (qubits[0], qubits[1])),
                          cphase(angle, qubits[0], qubits[1])][kind])
        for qubit in sorted(draw(st.sets(
                st.integers(0, num_qubits - 1), max_size=2))):
            gates.append(measure(qubit))
        return Circuit(num_qubits, gates)

    @given(circuit=circuits())
    @settings(deadline=None, max_examples=60)
    def test_roundtrip_identity(self, circuit):
        assert from_qasm(to_qasm(circuit)) == circuit

    @given(circuit=circuits())
    @settings(deadline=None, max_examples=60)
    def test_export_is_stable_under_reimport(self, circuit):
        # Canonicalization is a projection: one round trip reaches the
        # fixed point, so stored text never churns on re-upload.
        text = to_qasm(circuit)
        assert to_qasm(from_qasm(text)) == text
