"""Unit tests for the lookahead interaction weights (§III-A)."""

import math

import pytest

from repro.circuits import Circuit, CircuitDag, Frontier
from repro.circuits.gates import ccx, cx, h, x
from repro.core.weights import (
    InteractionWeights,
    frontier_weights,
    initial_weights,
    weights_from_layers,
)


class TestInteractionWeights:
    def test_symmetric(self):
        w = InteractionWeights()
        w.add(3, 1, 2.0)
        assert w.weight(1, 3) == 2.0
        assert w.weight(3, 1) == 2.0

    def test_accumulates(self):
        w = InteractionWeights()
        w.add(0, 1, 1.0)
        w.add(1, 0, 0.5)
        assert w.weight(0, 1) == pytest.approx(1.5)

    def test_partners(self):
        w = InteractionWeights()
        w.add(0, 1, 1.0)
        w.add(0, 2, 2.0)
        assert w.partners(0) == {1: 1.0, 2: 2.0}
        assert w.partners(9) == {}

    def test_heaviest_pair(self):
        w = InteractionWeights()
        w.add(0, 1, 1.0)
        w.add(2, 3, 5.0)
        assert w.heaviest_pair() == (2, 3)

    def test_heaviest_pair_empty(self):
        with pytest.raises(ValueError):
            InteractionWeights().heaviest_pair()

    def test_rejects_a_qubit_paired_with_itself(self):
        with pytest.raises(ValueError):
            InteractionWeights().add(2, 2, 1.0)


class TestWeightFunction:
    def test_frontier_gate_weight_one(self):
        # A gate in layer 0 contributes e^0 = 1.
        c = Circuit(2, [cx(0, 1)])
        w = initial_weights(CircuitDag(c))
        assert w.weight(0, 1) == pytest.approx(1.0)

    def test_exponential_decay_by_layer(self):
        # Three serial CX on the same pair: layers 0, 1, 2.
        c = Circuit(2, [cx(0, 1), cx(0, 1), cx(0, 1)])
        w = initial_weights(CircuitDag(c))
        expected = 1.0 + math.exp(-1.0) + math.exp(-2.0)
        assert w.weight(0, 1) == pytest.approx(expected)

    def test_custom_decay(self):
        c = Circuit(2, [cx(0, 1), cx(0, 1)])
        w = initial_weights(CircuitDag(c), decay=2.0)
        assert w.weight(0, 1) == pytest.approx(1.0 + math.exp(-2.0))

    def test_multiqubit_all_pairs(self):
        c = Circuit(3, [ccx(0, 1, 2)])
        w = initial_weights(CircuitDag(c))
        for pair in ((0, 1), (0, 2), (1, 2)):
            assert w.weight(*pair) == pytest.approx(1.0)

    def test_single_qubit_gates_ignored(self):
        c = Circuit(2, [h(0), x(1)])
        w = initial_weights(CircuitDag(c))
        assert len(w) == 0

    def test_layer_window_truncation(self):
        c = Circuit(2, [cx(0, 1) for _ in range(10)])
        w_full = initial_weights(CircuitDag(c), max_layers=10)
        w_short = initial_weights(CircuitDag(c), max_layers=2)
        assert w_short.weight(0, 1) < w_full.weight(0, 1)
        assert w_short.weight(0, 1) == pytest.approx(1.0 + math.exp(-1.0))


class TestFrontierWeights:
    def test_weights_shift_with_progress(self):
        # cx(0,1) then cx(1,2): initially (0,1) is frontier-weighted.
        c = Circuit(3, [cx(0, 1), cx(1, 2)])
        dag = CircuitDag(c)
        frontier = Frontier(dag)
        w0 = frontier_weights(frontier)
        assert w0.weight(0, 1) == pytest.approx(1.0)
        assert w0.weight(1, 2) == pytest.approx(math.exp(-1.0))
        frontier.complete(0)
        w1 = frontier_weights(frontier)
        assert w1.weight(0, 1) == 0.0
        assert w1.weight(1, 2) == pytest.approx(1.0)

    def test_weights_from_layers_direct(self):
        c = Circuit(2, [cx(0, 1)])
        dag = CircuitDag(c)
        w = weights_from_layers([[0]], dag)
        assert w.weight(0, 1) == pytest.approx(1.0)
