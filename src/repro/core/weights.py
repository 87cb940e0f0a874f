"""Lookahead interaction weights (§III-A).

The weighted interaction graph drives both placement and routing: program
qubits ``u, v`` get weight

    w(u, v) = sum_{l >= l_c} e^{-decay * |l_c - l|}

summed over future DAG layers ``l`` containing a gate acting on both
(every operand pair, for multiqubit gates).  ``l_c`` is the current
frontier layer, so gates about to execute dominate and distant ones decay
exponentially.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.circuits.dag import CircuitDag, Frontier

Pair = Tuple[int, int]


class InteractionWeights:
    """A symmetric sparse weight map over program-qubit pairs.

    One map per qubit: ``_per_qubit[u][v]`` and ``_per_qubit[v][u]``
    receive the same additions in the same order, so they stay equal bit
    for bit and every pair query is answered from either side.
    """

    def __init__(self) -> None:
        self._per_qubit: Dict[int, Dict[int, float]] = defaultdict(dict)

    def add(self, u: int, v: int, weight: float) -> None:
        if u == v:
            raise ValueError(f"no interaction weight between qubit {u} "
                             f"and itself")
        self._per_qubit[u][v] = self._per_qubit[u].get(v, 0.0) + weight
        self._per_qubit[v][u] = self._per_qubit[v].get(u, 0.0) + weight

    def weight(self, u: int, v: int) -> float:
        return self._per_qubit.get(u, {}).get(v, 0.0)

    def partners(self, u: int) -> Dict[int, float]:
        """All qubits with nonzero weight to ``u`` and those weights."""
        return self._per_qubit.get(u, {})

    def heaviest_pair(self) -> Pair:
        if not self._per_qubit:
            raise ValueError("no interactions recorded")
        # Deterministic tie-break on the pair itself.
        return max(
            self.pairs(),
            key=lambda p: (self._per_qubit[p[0]][p[1]], (-p[0], -p[1])),
        )

    def pairs(self) -> List[Pair]:
        """Every pair with recorded weight, as ``(u, v)`` with ``u < v``."""
        return [(u, v) for u, partners in self._per_qubit.items()
                for v in partners if u < v]

    def __len__(self) -> int:
        return sum(map(len, self._per_qubit.values())) // 2


def weights_from_layers(
    layers: List[List[int]],
    dag: CircuitDag,
    decay: float = 1.0,
) -> InteractionWeights:
    """Build weights from an explicit layer structure.

    ``layers[0]`` is the frontier (``l = l_c``), so the weight contribution
    of a gate in ``layers[k]`` is ``e^{-decay * k}``.

    Accumulation order matters: contributions are added gate by gate in
    (layer, gate, pair) order, exactly as :meth:`InteractionWeights.add`
    would — float sums stay bit-identical to the naive loop.
    """
    weights = InteractionWeights()
    per_qubit = weights._per_qubit
    for offset, layer in enumerate(layers):
        factor = math.exp(-decay * offset)
        for gate_idx in layer:
            for u, v in dag.weight_pairs(gate_idx):
                pu = per_qubit[u]
                pu[v] = pu.get(v, 0.0) + factor
                pv = per_qubit[v]
                pv[u] = pv.get(u, 0.0) + factor
    return weights


def initial_weights(
    dag: CircuitDag, max_layers: int = 40, decay: float = 1.0
) -> InteractionWeights:
    """Weights as seen from the start of the program (placement view)."""
    layers = dag.layers()[:max_layers]
    return weights_from_layers(layers, dag, decay=decay)


def frontier_weights(
    frontier: Frontier, max_layers: int = 10, decay: float = 1.0
) -> InteractionWeights:
    """Weights as seen from the current execution frontier (routing view)."""
    layers = frontier.remaining_layers(max_layers)
    return weights_from_layers(layers, frontier.dag, decay=decay)
