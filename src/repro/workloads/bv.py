"""Bernstein-Vazirani with the all-ones oracle.

The paper uses BV (§III-B) with the all-1s secret string "to maximize
gates": every data qubit contributes one CNOT onto the shared phase-
kickback ancilla, producing a fully serial chain of two-qubit gates all
touching one qubit — the worst case for limited connectivity and the best
showcase for long-range interactions.
"""

from __future__ import annotations

from typing import Optional

from repro.circuits.circuit import Circuit
from repro.circuits.gates import cx, h, x


def bernstein_vazirani(num_qubits: int, secret: Optional[str] = None) -> Circuit:
    """Build BV on ``num_qubits`` total qubits (data = ``num_qubits - 1``).

    ``secret`` is the hidden bitstring over the data qubits; ``None`` means
    all ones (the paper's choice).  The ancilla is the last qubit.

    The circuit leaves the data register in the computational basis state
    equal to ``secret`` — verified exactly by the statevector tests.
    """
    if num_qubits < 2:
        raise ValueError("BV needs at least one data qubit plus the ancilla")
    num_data = num_qubits - 1
    if secret is None:
        secret = "1" * num_data
    if len(secret) != num_data or any(b not in "01" for b in secret):
        raise ValueError(f"secret must be {num_data} bits of 0/1, got {secret!r}")

    ancilla = num_data
    circuit = Circuit(num_qubits)
    # Prepare the ancilla in |-> for phase kickback.
    circuit.append(x(ancilla))
    for q in range(num_data):
        circuit.append(h(q))
    circuit.append(h(ancilla))
    # Oracle: CNOT from each secret-1 data qubit onto the ancilla.
    for q, bit in enumerate(secret):
        if bit == "1":
            circuit.append(cx(q, ancilla))
    # Un-Hadamard the data register; it now holds the secret.
    for q in range(num_data):
        circuit.append(h(q))
    # Return the ancilla to |1> -> |1> deterministic state for cleanliness.
    circuit.append(h(ancilla))
    circuit.append(x(ancilla))
    return circuit
