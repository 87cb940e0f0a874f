"""Dense statevector simulator.

Validates circuit semantics: the workload generators (does the Cuccaro
adder add?), the decompositions (is the 6-CNOT Toffoli really a Toffoli?),
and the compiler (is the routed circuit equivalent to the input up to the
final qubit permutation?).  This mirrors the paper's §III-A validation of
its compiler against Qiskit's, which we cannot run offline.

State layout is big-endian: qubit 0 is the most significant bit of the
basis index, so ``|q0 q1 ... q_{n-1}>`` has index ``sum q_i 2^{n-1-i}``.
Practical up to ~14 qubits, which covers every correctness test here.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.gate_library import gate_unitary
from repro.circuits.gates import Gate

#: Refuse to simulate above this size; 2^18 complex amplitudes is already
#: 4 MiB and the apply loop is O(gates * 2^n).
MAX_QUBITS = 18


class Statevector:
    """A mutable ``2^n`` amplitude vector with gate application."""

    def __init__(self, num_qubits: int, state: Optional[np.ndarray] = None):
        if num_qubits > MAX_QUBITS:
            raise ValueError(
                f"refusing to simulate {num_qubits} qubits (max {MAX_QUBITS})"
            )
        self.num_qubits = num_qubits
        dim = 1 << num_qubits
        if state is None:
            self.state = np.zeros(dim, dtype=complex)
            self.state[0] = 1.0
        else:
            state = np.asarray(state, dtype=complex)
            if state.shape != (dim,):
                raise ValueError(f"state must have shape ({dim},)")
            self.state = state.copy()

    @classmethod
    def from_bitstring(cls, bits: str) -> "Statevector":
        """Computational basis state from a string like ``"0110"``.

        ``bits[0]`` is qubit 0 (big-endian).
        """
        num_qubits = len(bits)
        index = int(bits, 2)
        sv = cls(num_qubits)
        sv.state[0] = 0.0
        sv.state[index] = 1.0
        return sv

    def copy(self) -> "Statevector":
        return Statevector(self.num_qubits, self.state)

    # -- evolution -------------------------------------------------------------

    def apply_gate(self, gate: Gate) -> None:
        """Apply one unitary gate in place.

        Measurement gates are ignored here (they delimit readout for the
        loss model; sampling is exposed separately via :meth:`probabilities`).
        """
        if gate.is_measurement:
            return
        unitary = gate_unitary(gate)
        self._apply_unitary(unitary, gate.qubits)

    def apply_circuit(self, circuit: Circuit) -> None:
        if circuit.num_qubits > self.num_qubits:
            raise ValueError("circuit larger than register")
        for gate in circuit:
            self.apply_gate(gate)

    def _apply_unitary(self, unitary: np.ndarray, qubits: Sequence[int]) -> None:
        n = self.num_qubits
        k = len(qubits)
        # Move the operand axes to the front of a rank-n tensor, contract,
        # and move them back.  Axis i of the tensor is qubit i (big-endian).
        tensor = self.state.reshape([2] * n)
        axes = list(qubits)
        tensor = np.moveaxis(tensor, axes, range(k))
        tensor_shape = tensor.shape
        matrix = unitary.reshape([2] * (2 * k))
        contracted = np.tensordot(
            matrix, tensor, axes=(list(range(k, 2 * k)), list(range(k)))
        )
        contracted = np.moveaxis(contracted.reshape(tensor_shape), range(k), axes)
        self.state = contracted.reshape(1 << n)

    # -- readout -----------------------------------------------------------------

    def probabilities(self) -> np.ndarray:
        return np.abs(self.state) ** 2

    def probability_of(self, bits: str) -> float:
        return float(self.probabilities()[int(bits, 2)])

    def most_likely_bitstring(self) -> str:
        index = int(np.argmax(self.probabilities()))
        return format(index, f"0{self.num_qubits}b")

    def marginal_probabilities(self, qubits: Sequence[int]) -> Dict[str, float]:
        """Marginal distribution over ``qubits``, keyed by bitstring."""
        probs = self.probabilities()
        out: Dict[str, float] = {}
        n = self.num_qubits
        for index, p in enumerate(probs):
            if p < 1e-12:
                continue
            full = format(index, f"0{n}b")
            key = "".join(full[q] for q in qubits)
            out[key] = out.get(key, 0.0) + float(p)
        return out

    def fidelity_with(self, other: "Statevector") -> float:
        """|<self|other>|^2."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("qubit count mismatch")
        return float(abs(np.vdot(self.state, other.state)) ** 2)


def run(circuit: Circuit, initial_bits: Optional[str] = None) -> Statevector:
    """Run ``circuit`` from |0...0> or from the given basis state."""
    if initial_bits is None:
        sv = Statevector(circuit.num_qubits)
    else:
        if len(initial_bits) != circuit.num_qubits:
            raise ValueError("initial_bits length must equal circuit width")
        sv = Statevector.from_bitstring(initial_bits)
    sv.apply_circuit(circuit)
    return sv


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full ``2^n x 2^n`` unitary of a (small) circuit, big-endian."""
    if circuit.num_qubits > 10:
        raise ValueError("circuit_unitary limited to 10 qubits")
    dim = 1 << circuit.num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        sv = Statevector.from_bitstring(format(col, f"0{circuit.num_qubits}b"))
        sv.apply_circuit(circuit)
        out[:, col] = sv.state
    return out
