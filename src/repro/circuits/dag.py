"""Dependency DAG over a circuit's gates.

The compiler consumes circuits through this view: gates are nodes, and a
directed edge runs from gate *a* to gate *b* when they share a qubit and
*a* precedes *b* in program order (nearest predecessor per qubit only).

Two consumers:

* the lookahead weight function lays out the layers *ahead of the
  frontier* (paper §III-A, ``w(u, v) = sum_{l >= l_c} e^{-|l_c - l|}``)
  and sums each qubit's weights along its chain of gates;
* the scheduler pops executable gates from the frontier as their
  predecessors complete.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate


class CircuitDag:
    """Static dependency structure for one circuit."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        num_gates = len(circuit)
        self.predecessors: List[Set[int]] = [set() for _ in range(num_gates)]
        self.successors: List[Set[int]] = [set() for _ in range(num_gates)]
        last_on_qubit: Dict[int, int] = {}
        for idx, gate in enumerate(circuit):
            for q in gate.qubits:
                prev = last_on_qubit.get(q)
                if prev is not None:
                    self.predecessors[idx].add(prev)
                    self.successors[prev].add(idx)
                last_on_qubit[q] = idx
        self._layers: Optional[List[List[int]]] = None
        self._weight_pairs: Optional[List[Tuple[Tuple[int, int], ...]]] = None
        self._pair_chains: Optional[List[List[Tuple[int, Tuple[int, ...]]]]] = None

    def __len__(self) -> int:
        return len(self.circuit)

    # -- layering ------------------------------------------------------------

    def layers(self) -> List[List[int]]:
        """ASAP layers of gate indices (cached)."""
        if self._layers is None:
            self._layers = self.circuit.layers()
        return self._layers

    def weight_pairs(self) -> List[Tuple[Tuple[int, int], ...]]:
        """Per gate index, the operand pairs that carry lookahead weight.

        Empty for single-qubit gates and measurements.  Cached: the weight
        function re-walks the same gates every scheduler timestep.
        """
        if self._weight_pairs is None:
            pairs: List[Tuple[Tuple[int, int], ...]] = []
            for gate in self.circuit:
                if gate.arity < 2 or gate.is_measurement:
                    pairs.append(())
                else:
                    pairs.append(tuple(interaction_pairs(gate)))
            self._weight_pairs = pairs
        return self._weight_pairs

    def pair_chains(self) -> List[List[Tuple[int, Tuple[int, ...]]]]:
        """Per qubit, its weight-carrying gates in program order.

        Each entry is ``(gate index, partners)``: the gate's other
        operands in operand order, which is the order in which the
        gate's pairs (:func:`interaction_pairs`) reach this qubit.  The
        gates on one qubit form a dependency chain, so their layers
        strictly rise along it.  Cached, and built on first use: only
        routing that rescores SWAPs after some progress reads it.
        """
        if self._pair_chains is None:
            chains: List[List[Tuple[int, Tuple[int, ...]]]] = [
                [] for _ in range(self.circuit.num_qubits)]
            gates = self.circuit.gates
            for idx, pairs in enumerate(self.weight_pairs()):
                if pairs:
                    qubits = gates[idx].qubits
                    for pos, q in enumerate(qubits):
                        chains[q].append(
                            (idx, qubits[:pos] + qubits[pos + 1:]))
            self._pair_chains = chains
        return self._pair_chains


class Frontier:
    """Mutable execution frontier over a :class:`CircuitDag`.

    Tracks which gates are ready (all predecessors done).  The scheduler
    marks gates done one at a time; the lookahead weighting lays out the
    *remaining* layer structure from the ready set and the live
    predecessor counts, then follows the completion log to update it.
    """

    def __init__(self, dag: CircuitDag):
        self.dag = dag
        self._remaining_preds: List[int] = [len(p) for p in dag.predecessors]
        self._done: List[bool] = [False] * len(dag)
        self._ready: Set[int] = {i for i, n in enumerate(self._remaining_preds) if n == 0}
        self._completed: List[int] = []
        self.num_done = 0
        #: Incremental lookahead-weight state (:mod:`repro.core.weights`),
        #: one per weight window; it lives and dies with this frontier.
        self.lookahead: Dict[object, object] = {}

    @property
    def ready(self) -> Set[int]:
        """Indices of gates whose dependencies are all satisfied."""
        return self._ready

    def all_done(self) -> bool:
        return self.num_done == len(self.dag)

    def complete(self, idx: int) -> None:
        """Mark gate ``idx`` executed, releasing its successors."""
        if self._done[idx]:
            raise ValueError(f"gate {idx} already completed")
        if idx not in self._ready:
            raise ValueError(f"gate {idx} is not ready (unmet dependencies)")
        self._done[idx] = True
        self._ready.discard(idx)
        self._completed.append(idx)
        self.num_done += 1
        for succ in self.dag.successors[idx]:
            self._remaining_preds[succ] -= 1
            if self._remaining_preds[succ] == 0:
                self._ready.add(succ)

    @property
    def remaining_preds(self) -> List[int]:
        """Per gate, how many of its predecessors are still unexecuted.

        Kept current by :meth:`complete`; the lookahead weighting lays
        out the remaining layers from it.  Callers must not mutate it.
        """
        return self._remaining_preds

    @property
    def completed(self) -> List[int]:
        """Executed gates in completion order.  Callers must not mutate it."""
        return self._completed


def interaction_pairs(gate: Gate) -> List[Tuple[int, int]]:
    """All unordered operand pairs of a (multiqubit) gate.

    The lookahead weight of a k-qubit gate is added between every pair of
    its operands (paper §III-A: "when considering a multiqubit gate we add
    this weighting function between all pairs of qubits in the gate").
    """
    qubits = gate.qubits
    return [
        (qubits[i], qubits[j])
        for i in range(len(qubits))
        for j in range(i + 1, len(qubits))
    ]
