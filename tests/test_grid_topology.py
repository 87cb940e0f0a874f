"""Unit tests for the grid geometry and occupancy-aware topology."""

import math

import pytest

from repro.hardware import Grid, Topology


class TestGrid:
    def test_indexing_roundtrip(self):
        grid = Grid(4, 5)
        for site in grid.sites():
            assert grid.position(site) == divmod(site, grid.cols)
            assert grid.positions_list()[site] == grid.position(site)

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            Grid(0, 3)

    def test_bounds(self):
        grid = Grid(3, 3)
        with pytest.raises(IndexError):
            grid.position(9)

    def test_distance_euclidean(self):
        grid = Grid(3, 3)
        assert grid.distance(0, 1) == pytest.approx(1.0)
        assert grid.distance(0, 4) == pytest.approx(math.sqrt(2))
        assert grid.distance(0, 8) == pytest.approx(2 * math.sqrt(2))

    def test_max_distance_matches_paper(self):
        # 10x10 device: hypot(9, 9) ~ 12.73, the paper's "13".
        assert Grid.square(10).max_distance() == pytest.approx(math.hypot(9, 9))

    def test_neighbors_distance_1(self):
        table = Grid(3, 3).neighbor_table(1.0)
        assert sorted(table[4]) == [1, 3, 5, 7]
        assert sorted(table[0]) == [1, 3]

    def test_neighbors_distance_sqrt2(self):
        assert len(Grid(3, 3).neighbor_table(math.sqrt(2))[4]) == 8

    def test_neighbors_sorted_nearest_first(self):
        grid = Grid(5, 5)
        nbrs = grid.neighbor_table(2.0)[12]
        dists = [grid.distance(12, n) for n in nbrs]
        assert dists == sorted(dists)

    def test_center_ordering(self):
        grid = Grid(3, 3)
        order = grid.sites_by_center_distance()
        assert order[0] == 4  # exact center of 3x3
        assert set(order) == set(range(9))

    def test_equality_hash(self):
        assert Grid(3, 4) == Grid(3, 4)
        assert Grid(3, 4) != Grid(4, 3)
        assert hash(Grid.square(5)) == hash(Grid(5, 5))


class TestTopologyOccupancy:
    def test_initial_full(self):
        topo = Topology.square(3, 1.0)
        assert topo.num_active == 9
        assert topo.lost_sites == frozenset()

    def test_mid_below_one_rejected(self):
        with pytest.raises(ValueError):
            Topology.square(3, 0.5)

    def test_remove_and_reload(self):
        topo = Topology.square(3, 1.0)
        topo.remove_atom(4)
        assert not topo.is_active(4)
        assert topo.num_active == 8
        topo.reload()
        assert topo.num_active == 9

    def test_double_remove_rejected(self):
        topo = Topology.square(3, 1.0)
        topo.remove_atom(4)
        with pytest.raises(ValueError):
            topo.remove_atom(4)

    def test_remove_out_of_range(self):
        with pytest.raises(IndexError):
            Topology.square(3, 1.0).remove_atom(99)

    def test_copy_independent(self):
        topo = Topology.square(3, 1.0)
        clone = topo.copy()
        clone.remove_atom(0)
        assert topo.is_active(0)

    def test_with_interaction_distance(self):
        topo = Topology.square(3, 3.0)
        topo.remove_atom(1)
        smaller = topo.with_interaction_distance(2.0)
        assert smaller.max_interaction_distance == 2.0
        assert smaller.lost_sites == topo.lost_sites


class TestTopologyInteraction:
    def test_can_interact_within_range(self):
        topo = Topology.square(3, 2.0)
        assert topo.can_interact([0, 2])      # distance 2
        assert not topo.can_interact([0, 8])  # distance 2*sqrt(2)

    def test_can_interact_multiqubit_pairwise(self):
        topo = Topology.square(3, 2.0)
        assert topo.can_interact([0, 1, 2])   # max pair distance 2
        assert not topo.can_interact([0, 4, 8])

    def test_lost_atom_cannot_interact(self):
        topo = Topology.square(3, 2.0)
        topo.remove_atom(1)
        assert not topo.can_interact([0, 1])


def _connected(topo):
    """Whether routing reaches every active site from the first one."""
    first, *rest = topo.active_sites()
    return all(topo.shortest_path(first, site) for site in rest)


class TestTopologyGraph:
    def test_full_grid_connected(self):
        assert _connected(Topology.square(4, 1.0))

    def test_wall_of_holes_disconnects(self):
        topo = Topology.square(3, 1.0)
        for site in (1, 4, 7):  # middle column
            topo.remove_atom(site)
        assert not _connected(topo)

    def test_larger_mid_bridges_holes(self):
        topo = Topology.square(3, 2.0)
        for site in (1, 4, 7):
            topo.remove_atom(site)
        assert _connected(topo)

    def test_hop_distances(self):
        topo = Topology.square(3, 1.0)
        assert topo.shortest_path(0, 0) == [0]
        assert len(topo.shortest_path(0, 8)) - 1 == 4  # manhattan

    def test_hop_distances_from_lost_site_rejected(self):
        topo = Topology.square(3, 1.0)
        topo.remove_atom(0)
        assert topo.shortest_path(0, 8) is None
        assert topo.shortest_path(8, 0) is None

    def test_shortest_path_endpoints(self):
        topo = Topology.square(3, 1.0)
        path = topo.shortest_path(0, 8)
        assert path[0] == 0 and path[-1] == 8
        assert len(path) == 5
        for a, b in zip(path, path[1:]):
            assert topo.distance(a, b) <= 1.0 + 1e-9

    def test_shortest_path_avoids_holes(self):
        topo = Topology.square(3, 1.0)
        topo.remove_atom(4)  # center
        path = topo.shortest_path(3, 5)
        assert 4 not in path

    def test_shortest_path_disconnected_none(self):
        topo = Topology.square(3, 1.0)
        for site in (1, 4, 7):
            topo.remove_atom(site)
        assert topo.shortest_path(0, 2) is None

    def test_shortest_path_identity(self):
        topo = Topology.square(3, 1.0)
        assert topo.shortest_path(5, 5) == [5]
