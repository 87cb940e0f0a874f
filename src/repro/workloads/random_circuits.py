"""Random circuit generation.

Used by the property-based tests and useful to downstream users for
fuzzing compilers and loss strategies: structurally random programs with
a controllable mix of 1-, 2-, and 3-qubit gates.
"""

from __future__ import annotations

from typing import Sequence

from repro.circuits.circuit import Circuit
from repro.circuits.gates import ccx, cx, h, rx, rz, rzz
from repro.utils.rng import RngLike, ensure_rng


def random_circuit(
    num_qubits: int,
    num_gates: int,
    arity_weights: Sequence[float] = (0.3, 0.5, 0.2),
    rng: RngLike = 0,
) -> Circuit:
    """A structurally random circuit.

    ``arity_weights`` gives the relative frequency of 1-, 2-, and 3-qubit
    gates; 3-qubit draws fall back to 2-qubit when the register is too
    small.  Gate choices: H/RZ/RX (1q), CX/RZZ (2q), CCX (3q).
    """
    if num_qubits < 2:
        raise ValueError("random circuits need at least 2 qubits")
    if num_gates < 0:
        raise ValueError("num_gates must be non-negative")
    if len(arity_weights) != 3 or any(w < 0 for w in arity_weights):
        raise ValueError("arity_weights must be three non-negative numbers")
    total = sum(arity_weights)
    if total <= 0:
        raise ValueError("arity_weights must not all be zero")
    weights = [w / total for w in arity_weights]

    generator = ensure_rng(rng)
    circuit = Circuit(num_qubits)
    for _ in range(num_gates):
        arity = 1 + int(generator.choice(3, p=weights))
        if arity == 3 and num_qubits < 3:
            arity = 2
        qubits = generator.choice(num_qubits, size=arity, replace=False)
        qubits = [int(q) for q in qubits]
        if arity == 1:
            kind = int(generator.integers(3))
            if kind == 0:
                circuit.append(h(qubits[0]))
            elif kind == 1:
                circuit.append(rz(float(generator.uniform(0.1, 3.0)), qubits[0]))
            else:
                circuit.append(rx(float(generator.uniform(0.1, 3.0)), qubits[0]))
        elif arity == 2:
            if generator.random() < 0.7:
                circuit.append(cx(qubits[0], qubits[1]))
            else:
                circuit.append(rzz(float(generator.uniform(0.1, 3.0)),
                                   qubits[0], qubits[1]))
        else:
            circuit.append(ccx(qubits[0], qubits[1], qubits[2]))
    return circuit
