"""Unit tests for SWAP proposal and reroute path search."""

import pytest

from repro.core.routing import (
    SwapProposal,
    propose_swap,
    reroute_path_swaps,
)
from repro.core.weights import InteractionWeights
from repro.hardware import Topology


def layout(pairs):
    phi = dict(pairs)
    return phi, {site: q for q, site in phi.items()}


class TestProposeSwap:
    def test_moves_strictly_closer(self):
        topo = Topology.square(4, 1.0)
        phi, inv = layout([(0, 0), (1, 3)])  # distance 3 on the top row
        weights = InteractionWeights()
        weights.add(0, 1, 1.0)
        proposal = propose_swap((0, 1), phi, inv, topo, weights)
        assert proposal is not None
        moved_from, moved_to = proposal.sites
        # One endpoint steps toward the other.
        old = topo.distance(phi[0], phi[1])
        assert (topo.distance(moved_to, phi[1]) < old
                or topo.distance(moved_to, phi[0]) < old)

    def test_no_proposal_when_adjacent(self):
        # Both operands within range: nothing is strictly closer and the
        # BFS fallback refuses to swap a pair with itself.
        topo = Topology.square(4, 1.0)
        phi, inv = layout([(0, 0), (1, 1)])
        weights = InteractionWeights()
        weights.add(0, 1, 1.0)
        assert propose_swap((0, 1), phi, inv, topo, weights) is None

    def test_prefers_low_disruption(self):
        # Two symmetric moves close the q0..q1 gap on the top row of a
        # 4x4 grid: swap q0 (site 0) right into site 1, or swap q1
        # (site 3) left into the empty site 2.  Site 1 hosts q2, which
        # interacts heavily with q3 right below it, so displacing q2 is
        # penalized and the empty-site move must win.
        topo = Topology.square(4, 1.0)
        phi, inv = layout([(0, 0), (1, 3), (2, 1), (3, 5)])
        weights = InteractionWeights()
        weights.add(0, 1, 1.0)
        weights.add(2, 3, 100.0)
        proposal = propose_swap((0, 1), phi, inv, topo, weights)
        assert proposal is not None
        assert proposal.sites == (3, 2)

    def test_disconnected_returns_none(self):
        topo = Topology.square(3, 1.0)
        for site in (1, 4, 7):
            topo.remove_atom(site)
        phi, inv = layout([(0, 0), (1, 2)])
        weights = InteractionWeights()
        weights.add(0, 1, 1.0)
        assert propose_swap((0, 1), phi, inv, topo, weights) is None

    def test_fallback_threads_around_holes(self):
        # Straight-line neighbors lost; BFS must route around.
        topo = Topology.square(3, 1.0)
        topo.remove_atom(1)  # direct path 0 -> 2 via 1 is gone
        phi, inv = layout([(0, 0), (1, 2)])
        weights = InteractionWeights()
        weights.add(0, 1, 1.0)
        proposal = propose_swap((0, 1), phi, inv, topo, weights)
        assert proposal is not None
        assert topo.is_active(proposal.site_b)

    def test_three_qubit_gate_span_reduction(self):
        topo = Topology.square(4, 2.0)
        # Triangle too spread: q0@0, q1@3, q2@12.
        phi, inv = layout([(0, 0), (1, 3), (2, 12)])
        weights = InteractionWeights()
        for a, b in ((0, 1), (0, 2), (1, 2)):
            weights.add(a, b, 1.0)
        proposal = propose_swap((0, 1, 2), phi, inv, topo, weights)
        assert proposal is not None
        # The swap must reduce the moved operand's max distance to others.
        moved_from, moved_to = proposal.sites
        moved_q = inv[moved_from]
        others = [phi[q] for q in (0, 1, 2) if q != moved_q]
        assert max(topo.distance(moved_to, s) for s in others) < max(
            topo.distance(moved_from, s) for s in others
        )


class TestReroutePathSwaps:
    def test_already_in_range_empty(self):
        topo = Topology.square(4, 2.0)
        assert reroute_path_swaps(0, 2, topo) == []

    def test_chain_reaches_range(self):
        topo = Topology.square(5, 1.0)
        swaps = reroute_path_swaps(0, 4, topo)
        assert swaps is not None and len(swaps) == 3
        # Walk the chain: end within distance 1 of site 4.
        current = 0
        for a, b in swaps:
            assert a == current
            current = b
        assert topo.distance(current, 4) <= 1.0 + 1e-9

    def test_chain_respects_mid(self):
        topo = Topology.square(5, 2.0)
        swaps = reroute_path_swaps(0, 4, topo)
        current = swaps[-1][1] if swaps else 0
        assert topo.distance(current, 4) <= 2.0 + 1e-9
        # Larger MID needs fewer swaps than MID 1.
        assert len(swaps) < 3

    def test_disconnected_none(self):
        topo = Topology.square(3, 1.0)
        for site in (1, 4, 7):
            topo.remove_atom(site)
        assert reroute_path_swaps(0, 2, topo) is None

    def test_lost_endpoint_none(self):
        topo = Topology.square(3, 1.0)
        topo.remove_atom(0)
        assert reroute_path_swaps(0, 2, topo) is None
