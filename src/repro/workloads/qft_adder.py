"""QFT adder (Ruiz-Perez & Garcia-Escartin, QIP 2017).

The paper's mixed benchmark (§III-B): "a circuit with two QFT components
and a highly parallel addition component".  Computes ``|a>|b> ->
|a>|a + b mod 2^n>`` by Fourier-transforming B, phase-kicking A's bits
into the Fourier state with controlled phases, and transforming back.

Register layout: A = qubits ``0 .. n-1``, B = qubits ``n .. 2n-1``.
Within each register, index 0 is the most significant bit (big-endian,
matching the simulator's bit order).
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.circuits.circuit import Circuit
from repro.circuits.gates import cphase, h


def qft(qubits: Sequence[int]) -> List:
    """QFT gate list over ``qubits`` (most significant first).

    The output is left bit-reversed, the standard trick adders use: the
    inverse QFT undoes the reversal, so the swap network is never needed.
    """
    gates = []
    n = len(qubits)
    for i in range(n):
        gates.append(h(qubits[i]))
        for j in range(i + 1, n):
            angle = math.pi / (2 ** (j - i))
            gates.append(cphase(angle, qubits[j], qubits[i]))
    return gates


def inverse_qft(qubits: Sequence[int]) -> List:
    """Inverse of :func:`qft` (conjugate phases, reversed order)."""
    gates = []
    for gate in reversed(qft(qubits)):
        if gate.name == "cphase":
            gates.append(cphase(-gate.params[0], *gate.qubits))
        else:
            gates.append(gate)
    return gates


def qft_adder(num_bits: int) -> Circuit:
    """Fourier-space adder on ``2 * num_bits`` qubits: B += A (mod 2^n)."""
    if num_bits < 1:
        raise ValueError("adder needs at least one bit")
    a_qubits = list(range(num_bits))
    b_qubits = list(range(num_bits, 2 * num_bits))
    circuit = Circuit(2 * num_bits)

    circuit.extend(qft(b_qubits))
    # Phase addition: after the swapless QFT, b_qubits[i] carries the phase
    # e^{2 pi i B / 2^{n-i}} on its |1> component.  Adding A means rotating
    # it by 2 pi A / 2^{n-i}; bit a_j (value weight 2^{n-1-j}) contributes
    # angle 2 pi 2^{n-1-j} / 2^{n-i} = pi / 2^{j-i}, nontrivial for j >= i.
    for i in range(num_bits):
        for j in range(i, num_bits):
            angle = math.pi / (2 ** (j - i))
            circuit.append(cphase(angle, a_qubits[j], b_qubits[i]))
    circuit.extend(inverse_qft(b_qubits))
    return circuit


def qft_adder_from_total_qubits(num_qubits: int) -> Circuit:
    """Adder sized to use at most ``num_qubits`` qubits (>= 2)."""
    if num_qubits < 2:
        raise ValueError("qft adder needs at least 2 qubits")
    return qft_adder(num_qubits // 2)


def encode_operands(a_value: int, b_value: int, num_bits: int) -> str:
    """Initial basis state encoding A and B (big-endian within registers)."""
    if a_value >= 2**num_bits or b_value >= 2**num_bits:
        raise ValueError("operand does not fit in the register")
    a_bits = format(a_value, f"0{num_bits}b")
    b_bits = format(b_value, f"0{num_bits}b")
    return a_bits + b_bits


def decode_sum(bits: str, num_bits: int) -> int:
    """Read ``(a + b) mod 2^n`` from the B register of a measured bitstring."""
    return int(bits[num_bits:2 * num_bits], 2)
