"""Peephole circuit optimization.

The paper's compilation taxonomy (§II-B) splits compilation into circuit
optimization and hardware translation, and focuses on the latter.  This
module supplies the standard light-weight optimization passes so the
library covers the full pipeline:

* **self-inverse cancellation** — adjacent identical CX/H/X/... pairs on
  the same operands annihilate;
* **rotation merging** — adjacent RZ/RX/RY/CPHASE/RZZ on the same
  operands sum their angles (dropping the gate when the sum is ~0 mod 2pi);
* **fixed-point driver** — passes repeat until the circuit stops
  shrinking.

All passes preserve unitary semantics exactly (verified in the tests).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate, SELF_INVERSE_NAMES

#: Rotation families that merge by angle addition.  Maps name -> period.
_MERGEABLE = {
    "rz": 4 * math.pi,
    "rx": 4 * math.pi,
    "ry": 4 * math.pi,
    "cphase": 2 * math.pi,
    "rzz": 4 * math.pi,
    "p": 2 * math.pi,
    "phase": 2 * math.pi,
}

_ANGLE_EPS = 1e-12


def _commutes_trivially(a: Gate, b: Gate) -> bool:
    """Whether two gates act on disjoint qubits (always commute)."""
    return not (set(a.qubits) & set(b.qubits))


def cancel_self_inverses(circuit: Circuit) -> Circuit:
    """Remove adjacent identical self-inverse gate pairs.

    "Adjacent" means no intervening gate touches any of the pair's qubits
    (gates on disjoint qubits are skipped over).
    """
    gates: List[Optional[Gate]] = list(circuit.gates)
    changed = True
    while changed:
        changed = False
        for i, gate in enumerate(gates):
            if gate is None or gate.name not in SELF_INVERSE_NAMES:
                continue
            for j in range(i + 1, len(gates)):
                other = gates[j]
                if other is None:
                    continue
                if other == gate:
                    gates[i] = None
                    gates[j] = None
                    changed = True
                    break
                if not _commutes_trivially(gate, other):
                    break
    return Circuit(circuit.num_qubits, (g for g in gates if g is not None))


def merge_rotations(circuit: Circuit) -> Circuit:
    """Fuse adjacent same-family rotations on the same operands."""
    gates: List[Optional[Gate]] = list(circuit.gates)
    for i, gate in enumerate(gates):
        if gate is None or gate.name not in _MERGEABLE:
            continue
        for j in range(i + 1, len(gates)):
            other = gates[j]
            if other is None:
                continue
            if other.name == gate.name and other.qubits == gate.qubits:
                angle = (gate.params[0] + other.params[0]) % _MERGEABLE[gate.name]
                gates[j] = None
                if abs(angle) < _ANGLE_EPS or abs(
                    angle - _MERGEABLE[gate.name]
                ) < _ANGLE_EPS:
                    gates[i] = None
                else:
                    gates[i] = Gate(gate.name, gate.qubits, (angle,))
                gate = gates[i]
                if gate is None:
                    break
                continue
            if not _commutes_trivially(gate, other):
                break
    return Circuit(circuit.num_qubits, (g for g in gates if g is not None))


def optimize_circuit(circuit: Circuit, max_passes: int = 10) -> Circuit:
    """Run all peephole passes to a fixed point (bounded by ``max_passes``)."""
    current = circuit
    for _ in range(max_passes):
        reduced = merge_rotations(cancel_self_inverses(current))
        if len(reduced) == len(current):
            return reduced
        current = reduced
    return current


def optimization_report(before: Circuit, after: Circuit) -> Dict[str, int]:
    """Gate/depth deltas from an optimization run."""
    return {
        "gates_before": len(before),
        "gates_after": len(after),
        "gates_removed": len(before) - len(after),
        "depth_before": before.depth(),
        "depth_after": after.depth(),
    }
