"""Lookahead interaction weights (§III-A).

The weighted interaction graph drives both placement and routing: program
qubits ``u, v`` get weight

    w(u, v) = sum_{l >= l_c} e^{-decay * |l_c - l|}

summed over future DAG layers ``l`` containing a gate acting on both
(every operand pair, for multiqubit gates).  ``l_c`` is the current
frontier layer, so gates about to execute dominate and distant ones decay
exponentially.

Routing rebuilds these weights when it scores SWAPs after a gate has
completed.  :func:`frontier_weights` does it in one walk from the
frontier: it lays out each remaining layer and adds its gates' pairs
(the DAG's cached per-gate pair tuples) as it goes, stopping after
``max_layers`` layers.  Every sum is accumulated in (layer, gate, pair)
order, the order of :func:`weights_from_layers`, so the floats and each
map's insertion order do not depend on which of the two built them.
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
    for bit and every pair query is answered from either side.  The
    router's inner loop reads ``_per_qubit`` directly, in its insertion
    order.
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
    pair_table = dag.weight_pairs()
    for offset, layer in enumerate(layers):
        factor = math.exp(-decay * offset)
        for gate_idx in layer:
            for u, v in pair_table[gate_idx]:
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
    """Weights as seen from the current execution frontier (routing view).

    One walk lays out the unexecuted gates in ASAP layers and adds each
    gate's pairs as it is reached.  Layer 0 is the ready set in index
    order, and layer ``k + 1`` holds the successors whose last
    unexecuted predecessor lies in layer ``k``, in the order the walk
    releases them.  Only the first ``max_layers`` layers are visited,
    since the weight decays exponentially.  Gates are reached in the
    (layer, gate, pair) order of :func:`weights_from_layers`, so the
    sums match it bit for bit.
    """
    weights = InteractionWeights()
    per_qubit = weights._per_qubit
    pair_table = frontier.dag.weight_pairs()
    successors = frontier.dag.successors
    # The frontier's counts are live: for every unexecuted gate they
    # equal its unexecuted predecessors.  The walk counts down a local
    # copy of only the gates it visits; each gate lands in one layer, so
    # a count reaches zero exactly once.
    remaining_preds = frontier.remaining_preds
    pending: Dict[int, int] = {}
    layer = sorted(frontier.ready)
    for offset in range(max_layers):
        if not layer:
            break
        factor = math.exp(-decay * offset)
        walk = offset + 1 < max_layers
        next_layer: List[int] = []
        for gate_idx in layer:
            for u, v in pair_table[gate_idx]:
                pu = per_qubit[u]
                pu[v] = pu.get(v, 0.0) + factor
                pv = per_qubit[v]
                pv[u] = pv.get(u, 0.0) + factor
            if walk:
                for succ in successors[gate_idx]:
                    left = pending.get(succ, remaining_preds[succ]) - 1
                    pending[succ] = left
                    if left == 0:
                        next_layer.append(succ)
        layer = next_layer
    return weights
