"""Quantum circuit container.

A :class:`Circuit` is an ordered list of :class:`~repro.circuits.gates.Gate`
applications over ``num_qubits`` qubits.  It provides the structural queries
the compiler and analysis layers need: ASAP layering, depth, gate counts by
arity, and qubit remapping.

The circuit is deliberately simple — no classical registers, no conditional
gates — because the paper's benchmarks and compiler operate on straight-line
quantum programs whose control flow is fully known at compile time (§III-A).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.circuits.gates import Gate


class Circuit:
    """An ordered sequence of gates on a fixed-size qubit register."""

    def __init__(self, num_qubits: int, gates: Optional[Iterable[Gate]] = None):
        if num_qubits <= 0:
            raise ValueError(f"num_qubits must be positive, got {num_qubits}")
        self.num_qubits = int(num_qubits)
        self._gates: List[Gate] = []
        if gates is not None:
            for gate in gates:
                self.append(gate)

    # -- construction -------------------------------------------------------

    def append(self, gate: Gate) -> None:
        """Append one gate, validating operand indices."""
        for q in gate.qubits:
            if not 0 <= q < self.num_qubits:
                raise IndexError(
                    f"gate {gate} uses qubit {q} outside register of size "
                    f"{self.num_qubits}"
                )
        self._gates.append(gate)

    def extend(self, gates: Iterable[Gate]) -> None:
        for gate in gates:
            self.append(gate)

    def copy(self) -> "Circuit":
        return Circuit(self.num_qubits, self._gates)

    # -- access --------------------------------------------------------------

    @property
    def gates(self) -> Tuple[Gate, ...]:
        return tuple(self._gates)

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index):
        return self._gates[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.num_qubits == other.num_qubits and self._gates == other._gates

    # -- structural metrics --------------------------------------------------

    def layers(self) -> List[List[int]]:
        """ASAP layering: lists of gate indices with no intra-layer overlap.

        A gate lands in layer ``1 + max(layer of its qubit predecessors)``.
        This is the logical-dependency depth, ignoring hardware constraints;
        the scheduler produces the *physical* depth.
        """
        qubit_layer: Dict[int, int] = {}
        layers: List[List[int]] = []
        for idx, gate in enumerate(self._gates):
            layer = max((qubit_layer.get(q, -1) for q in gate.qubits), default=-1) + 1
            if layer == len(layers):
                layers.append([])
            layers[layer].append(idx)
            for q in gate.qubits:
                qubit_layer[q] = layer
        return layers

    def depth(self) -> int:
        """Length of the critical path in logical layers."""
        qubit_layer: Dict[int, int] = {}
        depth = 0
        for gate in self._gates:
            layer = max((qubit_layer.get(q, -1) for q in gate.qubits), default=-1) + 1
            for q in gate.qubits:
                qubit_layer[q] = layer
            if layer + 1 > depth:
                depth = layer + 1
        return depth

    def gate_counts(self) -> Counter:
        """Counter of gate names."""
        return Counter(g.name for g in self._gates)

    def counts_by_arity(self) -> Counter:
        """Counter mapping arity (1, 2, 3, ...) to number of gates.

        This is the ``n_i`` of the paper's success-rate model (§V).
        Measurement gates are excluded — readout error is modelled
        separately by the loss machinery.
        """
        return Counter(g.arity for g in self._gates if not g.is_measurement)

    # -- transformation ------------------------------------------------------

    def without_measurements(self) -> "Circuit":
        return Circuit(
            self.num_qubits, (g for g in self._gates if not g.is_measurement)
        )

    def __str__(self) -> str:
        body = "\n".join(f"  {g}" for g in self._gates[:50])
        suffix = "" if len(self._gates) <= 50 else f"\n  ... ({len(self._gates)} total)"
        return f"Circuit({self.num_qubits} qubits, {len(self._gates)} gates)\n{body}{suffix}"

    def __repr__(self) -> str:
        return f"Circuit(num_qubits={self.num_qubits}, gates={len(self._gates)})"
