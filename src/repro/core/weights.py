"""Lookahead interaction weights (§III-A).

The weighted interaction graph drives both placement and routing: program
qubits ``u, v`` get weight

    w(u, v) = sum_{l >= l_c} e^{-decay * |l_c - l|}

summed over future DAG layers ``l`` containing a gate acting on both
(every operand pair, for multiqubit gates).  ``l_c`` is the current
frontier layer, so gates about to execute dominate and distant ones decay
exponentially.

Routing needs these weights again whenever it scores SWAPs after a gate
has completed.  :func:`frontier_weights` lays the remaining layers out
in one walk from the frontier the first time, adding each gate's pairs
as it goes and stopping after ``max_layers`` layers; every sum is
accumulated in (layer, gate, pair) order, the order of
:func:`weights_from_layers`.  Later calls on the same frontier update
that result instead of walking again, and stay bit for bit equal to a
fresh walk.  This rests on a chain property:

* The gates acting on one qubit form a dependency chain, so their ASAP
  layers strictly rise along it and each layer holds at most one of
  them.  Qubit ``u``'s row therefore receives its additions in chain
  order, whatever order the walk visits a layer's gates in: each sum is
  the same floats added in the same order, and the row's keys appear in
  the order its partners first occur along the chain.  One row can be
  rebuilt alone, from the layers of its chain's gates, and match the
  walk exactly.
* Completing ready gates lowers any other gate's layer, never raises
  it, and a gate can drop only when a predecessor that was exactly one
  layer below it completed or dropped.  So the update follows the drops
  from the completed gates' successors, in layer order, and rebuilds
  only the rows of qubits whose chain gates completed, moved, or entered
  the window.

Rows are replaced, never mutated, so every returned map stays as it was
returned.  Where the window is small, or many gates completed since the
last call (chain-like circuits, where a completion shifts everything
behind it), one walk is cheaper than following the drops, and it gives
the same layers.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

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

    def __init__(
        self, per_qubit: Optional[Dict[int, Dict[int, float]]] = None
    ) -> None:
        if per_qubit is None:
            per_qubit = defaultdict(dict)
        self._per_qubit: Dict[int, Dict[int, float]] = per_qubit

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

    The first call on a frontier lays out the unexecuted gates in one
    walk; later calls update only the rows whose gates moved (see the
    module docstring).  Each returned object stays as it was returned:
    later calls replace rows, never mutate them.
    """
    if max_layers <= 0:
        return InteractionWeights()
    key = (max_layers, decay)
    state = frontier.lookahead.get(key)
    if state is None:
        state = frontier.lookahead[key] = _FrontierRows(
            frontier, max_layers, decay)
    return state.weights(frontier)


#: An update walks the window again, which is cheaper than following
#: the drops, when the window holds fewer unexecuted gates than this ...
SMALL_WINDOW = 32
#: ... or when more than one in this many of them executed since the
#: last update: a large batch moves most of the window.
BATCH_SHARE = 16


class _FrontierRows:
    """Incremental lookahead rows for one frontier and weight window.

    ``layer[g]`` is gate ``g``'s ASAP layer above the frontier, capped at
    ``max_layers`` (the cap means "outside the window"), and -1 once it
    has executed; it is current as of the last update.  ``current`` is
    the weights object the last update returned and ``window`` the
    number of unexecuted gates inside the window.
    """

    def __init__(self, frontier: Frontier, max_layers: int, decay: float):
        # No reference back to the frontier, which holds this state: the
        # pair would live on until a cyclic garbage collection.
        self.dag = frontier.dag
        self.completed = frontier.completed
        self.cap = max_layers
        self.decay = decay
        #: e^{-decay * k} for each layer k the walks have reached.  No
        #: gate is ever at another layer: a walk that stops short of the
        #: cap has visited every unexecuted gate, and layers only fall.
        self.factors: List[float] = []
        self.layer = layer = [max_layers] * len(self.dag)
        for gate_idx in self.completed:
            layer[gate_idx] = -1
        self.seen = len(self.completed)
        #: Set up by the first update that follows the drops: the DAG's
        #: pair chains, per qubit the position in its chain of the first
        #: gate that may be unexecuted, per gate the update that last
        #: queued it, and one queue per layer.
        self.chains: List[List[Tuple[int, Tuple[int, ...]]]] = []
        self.head: List[int] = []
        self.stamp: List[int] = []
        self.queues: List[List[int]] = []
        #: Updates served so far; one that follows the drops stamps the
        #: gates it queues with this count.
        self.updates = 0
        self.current, self.window = self._walk(frontier)

    def weights(self, frontier: Frontier) -> InteractionWeights:
        """The weights for ``frontier`` (this state's) as it is now."""
        completed = self.completed
        seen = self.seen
        if seen == len(completed):
            return self.current
        self.seen = len(completed)
        layer = self.layer
        window = self.window
        self.updates += 1
        # The first update walks too: a schedule that rescores only once
        # more would not pay back setting up the chains.
        if (self.updates == 1 or window < SMALL_WINDOW
                or BATCH_SHARE * (len(completed) - seen) > window):
            for gate_idx in completed[seen:]:
                layer[gate_idx] = -1
            self.current, self.window = self._walk(frontier)
        else:
            dirty = self._lower_layers(completed[seen:])
            self.current = self._rebuild_rows(dirty)
        return self.current

    def _walk(self, frontier: Frontier) -> Tuple[InteractionWeights, int]:
        """Lay out the window in one walk, adding each gate's pairs as it
        is reached, and record every visited gate's layer.

        Layer 0 is the ready set in index order, and layer ``k + 1``
        holds the successors whose last unexecuted predecessor lies in
        layer ``k``, in the order the walk releases them.  Returns the
        weights and the number of gates visited.
        """
        weights = InteractionWeights()
        per_qubit = weights._per_qubit
        pair_table = self.dag.weight_pairs()
        successors = self.dag.successors
        layer_of = self.layer
        factors = self.factors
        max_layers = self.cap
        visited = 0
        # The frontier's counts are live: for every unexecuted gate they
        # equal its unexecuted predecessors.  The walk counts down a
        # local copy of only the gates it visits; each gate lands in one
        # layer, so a count reaches zero exactly once.
        remaining_preds = frontier.remaining_preds
        pending: Dict[int, int] = {}
        layer = sorted(frontier.ready)
        for offset in range(max_layers):
            if not layer:
                break
            if offset == len(factors):
                factors.append(math.exp(-self.decay * offset))
            factor = factors[offset]
            walk = offset + 1 < max_layers
            next_layer: List[int] = []
            visited += len(layer)
            for gate_idx in layer:
                layer_of[gate_idx] = offset
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
        return weights, visited

    def _lower_layers(self, batch: List[int]) -> Set[int]:
        """Retire ``batch`` (newly executed gates) and lower the layers
        its completion lowered; return the qubits whose rows changed.

        A gate's new layer is one above its highest predecessor's, and
        executed predecessors sit at -1.  A successor is queued only if
        the gate that completed or dropped was critical to it: exactly
        one layer below it (both capped).  Queues are taken in layer
        order, so every predecessor settles first.  The last queue holds
        gates outside the window; they can depend on each other, so it
        is taken in index order.
        """
        dag = self.dag
        layer = self.layer
        cap = self.cap
        successors = dag.successors
        predecessors = dag.predecessors
        pair_table = dag.weight_pairs()
        if not self.queues:
            self.chains = dag.pair_chains()
            self.head = [0] * len(self.chains)
            self.stamp = [0] * len(layer)
            self.queues = [[] for _ in range(cap + 1)]
        tick = self.updates
        stamp = self.stamp
        queues = self.queues
        dirty: Set[int] = set()
        mark = dirty.update
        window = self.window
        lowest = cap
        highest = 0
        for g in batch:
            old = layer[g]
            layer[g] = -1
            if old < cap:
                window -= 1
                for pair in pair_table[g]:
                    mark(pair)
                above = old + 1
            else:
                above = cap
            if above < lowest:
                lowest = above
            if above > highest:
                highest = above
            queue = queues[above]
            for succ in successors[g]:
                if layer[succ] == above and stamp[succ] != tick:
                    stamp[succ] = tick
                    queue.append(succ)
        level = lowest
        while level < cap:
            queue = queues[level]
            if not queue:
                if level >= highest:
                    break
                level += 1
                continue
            above = level + 1
            later = queues[above]
            for g in queue:
                new = 0
                for p in predecessors[g]:
                    if layer[p] >= new:
                        new = layer[p] + 1
                # Executed gates (-1) in the queue stay put.
                if new >= layer[g]:
                    continue
                layer[g] = new
                for pair in pair_table[g]:
                    mark(pair)
                for succ in successors[g]:
                    if layer[succ] == above and stamp[succ] != tick:
                        stamp[succ] = tick
                        later.append(succ)
            queue.clear()
            level = above
        outside = queues[cap]
        if outside:
            heapq.heapify(outside)
            while outside:
                g = heapq.heappop(outside)
                new = 0
                for p in predecessors[g]:
                    if layer[p] >= new:
                        new = layer[p] + 1
                if new >= layer[g]:
                    continue
                layer[g] = new
                window += 1
                for pair in pair_table[g]:
                    mark(pair)
                for succ in successors[g]:
                    if layer[succ] == cap and stamp[succ] != tick:
                        stamp[succ] = tick
                        heapq.heappush(outside, succ)
        self.window = window
        return dirty

    def _rebuild_rows(self, dirty: Set[int]) -> InteractionWeights:
        """A copy of the current weights with the ``dirty`` rows rebuilt
        along their chains.  A chain's gates rise a layer each, so at
        most ``cap`` of them lie in the window."""
        rows = self.current._per_qubit.copy()
        layer = self.layer
        cap = self.cap
        chains = self.chains
        head = self.head
        factors = self.factors
        for q in dirty:
            chain = chains[q]
            pos = head[q]
            end = len(chain)
            while pos < end and layer[chain[pos][0]] < 0:
                pos += 1
            head[q] = pos
            row: Dict[int, float] = {}
            for g, partners in chain[pos:pos + cap]:
                offset = layer[g]
                if offset >= cap:
                    break
                factor = factors[offset]
                for v in partners:
                    if v in row:
                        row[v] += factor
                    else:
                        row[v] = factor
            if row:
                rows[q] = row
            else:
                rows.pop(q, None)
        return InteractionWeights(rows)
