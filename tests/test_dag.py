"""Unit tests for the circuit DAG and execution frontier."""

import pytest

from repro.circuits import Circuit, CircuitDag, Frontier, interaction_pairs
from repro.circuits.gates import ccx, cx, h, x


def chain_circuit():
    # 0: h(0) -> 1: cx(0,1) -> 2: cx(1,2) ; 3: x(3) independent
    return Circuit(4, [h(0), cx(0, 1), cx(1, 2), x(3)])


class TestDagStructure:
    def test_predecessors(self):
        dag = CircuitDag(chain_circuit())
        assert dag.predecessors[0] == set()
        assert dag.predecessors[1] == {0}
        assert dag.predecessors[2] == {1}
        assert dag.predecessors[3] == set()

    def test_successors(self):
        dag = CircuitDag(chain_circuit())
        assert dag.successors[0] == {1}
        assert dag.successors[1] == {2}
        assert dag.successors[2] == set()

    def test_multi_predecessor(self):
        c = Circuit(3, [h(0), h(1), cx(0, 1)])
        dag = CircuitDag(c)
        assert dag.predecessors[2] == {0, 1}

    def test_only_nearest_predecessor_per_qubit(self):
        c = Circuit(2, [x(0), x(0), cx(0, 1)])
        dag = CircuitDag(c)
        assert dag.predecessors[2] == {1}

    def test_gate_layer(self):
        dag = CircuitDag(chain_circuit())
        assert dag.layers() == [[0, 3], [1], [2]]


class TestFrontier:
    def test_initial_ready(self):
        frontier = Frontier(CircuitDag(chain_circuit()))
        assert frontier.ready == {0, 3}

    def test_complete_releases_successor(self):
        frontier = Frontier(CircuitDag(chain_circuit()))
        frontier.complete(0)
        assert 1 in frontier.ready

    def test_complete_not_ready_raises(self):
        frontier = Frontier(CircuitDag(chain_circuit()))
        with pytest.raises(ValueError):
            frontier.complete(2)

    def test_double_complete_raises(self):
        frontier = Frontier(CircuitDag(chain_circuit()))
        frontier.complete(0)
        with pytest.raises(ValueError):
            frontier.complete(0)

    def test_all_done(self):
        frontier = Frontier(CircuitDag(chain_circuit()))
        for idx in (0, 3, 1, 2):
            frontier.complete(idx)
        assert frontier.all_done()


class TestInteractionPairs:
    def test_two_qubit(self):
        assert interaction_pairs(cx(3, 5)) == [(3, 5)]

    def test_three_qubit_all_pairs(self):
        pairs = interaction_pairs(ccx(0, 1, 2))
        assert set(pairs) == {(0, 1), (0, 2), (1, 2)}

    def test_single_qubit_empty(self):
        assert interaction_pairs(x(0)) == []
