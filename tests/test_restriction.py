"""Unit tests for restriction zones — the Fig 1 semantics."""

import pytest

from repro.hardware.restriction import (
    RestrictionModel,
    Zone,
    full_distance,
    half_distance,
    max_parallel_gates,
    no_restriction,
)


class TestRadiusFunctions:
    def test_half(self):
        assert half_distance(4.0) == 2.0

    def test_full(self):
        assert full_distance(3.0) == 3.0

    def test_none(self):
        assert no_restriction(5.0) == 0.0


class TestZone:
    def test_radius_from_span(self):
        model = RestrictionModel()
        zone = model.zone_for([(0, 0), (0, 4)])
        assert zone.radius == pytest.approx(2.0)

    def test_single_qubit_zero_radius(self):
        model = RestrictionModel()
        zone = model.zone_for([(2, 2)])
        assert zone.radius == 0.0

    def test_multiqubit_uses_max_pairwise(self):
        model = RestrictionModel()
        zone = model.zone_for([(0, 0), (0, 1), (0, 3)])
        assert zone.radius == pytest.approx(1.5)

    def test_zone_scale(self):
        model = RestrictionModel(zone_scale=2.0)
        zone = model.zone_for([(0, 0), (0, 2)])
        assert zone.radius == pytest.approx(2.0)

    def test_tangent_zones_do_not_intersect(self):
        a = Zone(((0.0, 0.0),), 1.0)
        b = Zone(((0.0, 2.0),), 1.0)
        assert not a.intersects(b)

    def test_overlapping_zones_intersect(self):
        a = Zone(((0.0, 0.0),), 1.2)
        b = Zone(((0.0, 2.0),), 1.0)
        assert a.intersects(b)

    def test_point_zone_inside_disk_conflicts(self):
        gate_zone = Zone(((0.0, 0.0), (0.0, 4.0)), 2.0)
        one_qubit = Zone(((0.0, 1.0),), 0.0)
        assert one_qubit.intersects(gate_zone)
        assert gate_zone.intersects(one_qubit)

    def test_two_single_qubit_zones_never_intersect(self):
        a = Zone(((0.0, 0.0),), 0.0)
        b = Zone(((0.0, 1.0),), 0.0)
        assert not a.intersects(b)


class TestConflicts:
    def test_shared_site_always_conflicts(self):
        model = RestrictionModel(no_restriction)
        assert model.conflict([(0, 0), (0, 1)], [(0, 1), (0, 2)])

    def test_disabled_model_only_shared_sites(self):
        model = RestrictionModel(no_restriction)
        assert not model.conflict([(0, 0), (0, 1)], [(0, 2), (0, 3)])
        assert model.disabled

    def test_adjacent_unit_gates_parallel(self):
        # Two distance-1 gates side by side: radii 0.5, centers 1 apart.
        model = RestrictionModel()
        assert not model.conflict([(0, 0), (0, 1)], [(1, 0), (1, 1)])

    def test_long_gate_blocks_neighbor(self):
        # A distance-4 gate (radius 2) blocks a unit gate 1 away.
        model = RestrictionModel()
        assert model.conflict([(0, 0), (0, 4)], [(1, 0), (1, 1)])

    def test_fig1_distant_gates_parallel(self):
        # Far-apart interactions run simultaneously (Fig 1a's green checks).
        model = RestrictionModel()
        assert not model.conflict([(0, 0), (0, 2)], [(5, 5), (5, 7)])

    def test_scale_parameter_validated(self):
        with pytest.raises(ValueError):
            RestrictionModel(zone_scale=-1.0)

    def test_string_radius_lookup(self):
        assert RestrictionModel("none").disabled
        assert not RestrictionModel("half").disabled


class TestGreedyPacking:
    def test_non_conflicting_all_chosen(self):
        model = RestrictionModel()
        gates = [[(0, 0), (0, 1)], [(3, 0), (3, 1)], [(6, 0), (6, 1)]]
        assert max_parallel_gates(model, gates) == [0, 1, 2]

    def test_conflicting_greedy_order(self):
        model = RestrictionModel()
        gates = [[(0, 0), (0, 4)],   # big zone
                 [(1, 1), (1, 2)],   # inside it
                 [(5, 5), (5, 6)]]   # far away
        assert max_parallel_gates(model, gates) == [0, 2]

    def test_shared_site_excluded(self):
        model = RestrictionModel(no_restriction)
        gates = [[(0, 0), (0, 1)], [(0, 1), (0, 2)]]
        assert max_parallel_gates(model, gates) == [0]
