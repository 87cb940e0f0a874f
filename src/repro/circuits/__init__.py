"""Quantum circuit intermediate representation.

The compiler's input and output language: immutable gates, ordered
circuits, dependency DAGs, decompositions, and OpenQASM interchange.
"""

from repro.circuits.circuit import Circuit
from repro.circuits.dag import CircuitDag, Frontier, interaction_pairs
from repro.circuits.digest import (
    CIRCUIT_REF_PREFIX,
    circuit_digest,
    is_circuit_digest,
    parse_circuit_ref,
)
from repro.circuits.decompose import (
    decompose_ccx,
    decompose_circuit,
    decompose_gate,
    decompose_mcx,
    decompose_swap,
)
from repro.circuits.gates import Gate
from repro.circuits.qasm import SUPPORTED_QASM_GATES, from_qasm, to_qasm

__all__ = [
    "CIRCUIT_REF_PREFIX",
    "Circuit",
    "CircuitDag",
    "Frontier",
    "Gate",
    "SUPPORTED_QASM_GATES",
    "circuit_digest",
    "is_circuit_digest",
    "parse_circuit_ref",
    "decompose_ccx",
    "decompose_circuit",
    "decompose_gate",
    "decompose_mcx",
    "decompose_swap",
    "from_qasm",
    "interaction_pairs",
    "to_qasm",
]
