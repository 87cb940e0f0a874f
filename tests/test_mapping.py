"""Unit tests for the greedy initial placement (§III-A)."""

import pytest

from repro.circuits import Circuit, CircuitDag
from repro.circuits.gates import cx, h
from repro.core.mapping import MappingError, initial_mapping, placement_order
from repro.core.weights import InteractionWeights, initial_weights
from repro.hardware import Grid, Topology


def mapping_for(circuit, topology):
    weights = initial_weights(CircuitDag(circuit))
    order = placement_order(circuit.num_qubits, weights)
    return initial_mapping(order, topology, weights)


class TestBasics:
    def test_injective_and_active(self):
        c = Circuit(4, [cx(0, 1), cx(2, 3), cx(1, 2)])
        topo = Topology.square(3, 1.0)
        mapping = mapping_for(c, topo)
        assert len(mapping) == 4
        assert len(set(mapping.values())) == 4
        assert all(topo.is_active(s) for s in mapping.values())

    def test_too_many_qubits(self):
        c = Circuit(10, [cx(0, 1)])
        topo = Topology.square(3, 1.0)
        with pytest.raises(MappingError):
            mapping_for(c, topo)

    def test_avoids_lost_sites(self):
        c = Circuit(6, [cx(i, i + 1) for i in range(5)])
        topo = Topology.square(3, 1.0)
        topo.remove_atom(4)
        mapping = mapping_for(c, topo)
        assert 4 not in mapping.values()

    def test_exactly_fills_device(self):
        c = Circuit(9, [cx(i, (i + 1) % 9) for i in range(9)])
        topo = Topology.square(3, 2.0)
        mapping = mapping_for(c, topo)
        assert sorted(mapping.values()) == list(range(9))


class TestPlacementQuality:
    def test_heaviest_pair_adjacent_at_center(self):
        # Qubits 0,1 interact 5x; 2,3 once.  0,1 should sit adjacent.
        gates = [cx(0, 1) for _ in range(5)] + [cx(2, 3)]
        c = Circuit(4, gates)
        topo = Topology.square(5, 1.0)
        mapping = mapping_for(c, topo)
        assert topo.distance(mapping[0], mapping[1]) == pytest.approx(1.0)
        # And near the device center (site 12 in a 5x5).
        assert topo.distance(mapping[0], 12) <= 2.0

    def test_partners_placed_close(self):
        # Star: qubit 0 talks to everyone; it should be more central
        # (smaller mean distance to others) than the leaves are.
        c = Circuit(5, [cx(0, i) for i in range(1, 5)] * 2)
        topo = Topology.square(5, 1.0)
        mapping = mapping_for(c, topo)
        def mean_dist(q):
            others = [v for k, v in mapping.items() if k != q]
            return sum(topo.distance(mapping[q], s) for s in others) / len(others)
        assert mean_dist(0) <= min(mean_dist(q) for q in range(1, 5)) + 1e-9

    def test_isolated_qubits_still_placed(self):
        c = Circuit(4, [cx(0, 1), h(2), h(3)])  # 2, 3 never interact
        topo = Topology.square(3, 1.0)
        mapping = mapping_for(c, topo)
        assert set(mapping) == {0, 1, 2, 3}

    def test_no_interactions_at_all(self):
        c = Circuit(3, [h(0), h(1), h(2)])
        topo = Topology.square(3, 1.0)
        mapping = mapping_for(c, topo)
        assert len(set(mapping.values())) == 3

    def test_deterministic(self):
        c = Circuit(5, [cx(0, 1), cx(1, 2), cx(3, 4)])
        topo = Topology.square(4, 2.0)
        assert mapping_for(c, topo) == mapping_for(c, topo)


class TestExplicitWeights:
    def test_manual_weights_drive_placement(self):
        weights = InteractionWeights()
        weights.add(0, 1, 10.0)
        topo = Topology.square(4, 1.0)
        mapping = initial_mapping(placement_order(2, weights), topo, weights)
        assert topo.distance(mapping[0], mapping[1]) == pytest.approx(1.0)


class TestBestSite:
    def test_partial_sum_tie_does_not_win(self):
        # 1x10 grid at MID 1 with atoms only at sites 2, 6, 7 and 9.  The
        # pair (1, 2) takes sites 6 and 7; qubit 0 (partners 2 then 1,
        # weight 1 each) scores 2 + 3 = 5 at site 9 and 5 + 4 = 9 at site
        # 2.  Site 2's first partial sum already ties site 9's full score;
        # that must not let it win the lower-site tie-break.
        topo = Topology(Grid(1, 10), 1.0,
                        lost_sites=set(range(10)) - {2, 6, 7, 9})
        weights = InteractionWeights()
        weights.add(0, 2, 1.0)
        weights.add(0, 1, 1.0)
        weights.add(1, 2, 10.0)
        order = placement_order(3, weights)
        assert order == [1, 2, 0]
        mapping = initial_mapping(order, topo, weights)
        assert (mapping[1], mapping[2]) == (6, 7)
        assert mapping[0] == 9
