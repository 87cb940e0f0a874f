"""Unit tests for the virtual remapping table (§VI, Fig 9b)."""

import pytest

from repro.hardware import Topology
from repro.loss.virtual_map import RemapFailed, VirtualMap


def fresh(side=4, mid=2.0, roles=(5, 6)):
    topo = Topology.square(side, mid)
    return topo, VirtualMap(topo, roles)


class TestIdentityStart:
    def test_roles_map_to_themselves(self):
        _, vmap = fresh(roles=(1, 2, 3))
        for role in (1, 2, 3):
            assert vmap.physical(role) == role
        assert set(vmap.site_to_role) == {1, 2, 3}
        assert vmap.site_to_role[2] == 2
        assert 0 not in vmap.site_to_role


class TestSpareCounting:
    def test_spares_toward_edge(self):
        # 4x4 grid, roles on 5 and 6 (row 1).  From site 5 eastward:
        # sites 6 (occupied), 7 (spare) -> 1 spare.
        _, vmap = fresh()
        assert vmap.spares_toward_edge(5, (0, 1)) == 1
        # Westward from 5: site 4 is spare -> 1.
        assert vmap.spares_toward_edge(5, (0, -1)) == 1
        # North from 5: site 1 spare -> 1; south: 9, 13 spares -> 2.
        assert vmap.spares_toward_edge(5, (-1, 0)) == 1
        assert vmap.spares_toward_edge(5, (1, 0)) == 2

    def test_best_direction_prefers_most_spares(self):
        _, vmap = fresh()
        assert vmap.best_direction(5) == (1, 0)  # south, 2 spares

    def test_lost_sites_are_not_spares(self):
        topo, vmap = fresh()
        topo.remove_atom(9)
        topo.remove_atom(13)
        assert vmap.spares_toward_edge(5, (1, 0)) == 0


class TestShift:
    def test_spare_loss_is_noop(self):
        topo, vmap = fresh()
        topo.remove_atom(0)
        assert vmap.shift_for_loss(0) == 0
        assert set(vmap.site_to_role) == {5, 6}

    def test_single_shift_consumes_spare(self):
        topo, vmap = fresh(roles=(5,))
        topo.remove_atom(5)
        moves = vmap.shift_for_loss(5)
        assert moves == 1
        # East and south tie at 2 spares; east wins by direction order.
        assert vmap.physical(5) == 6
        assert 5 not in vmap.site_to_role

    def test_chain_shift(self):
        # Only south has spares (east/west/north atoms removed); roles 5
        # and 9 form a southward chain, so losing 5 pushes role 5 into 9
        # and role 9 into the spare at 13.
        topo = Topology.square(4, 2.0)
        vmap = VirtualMap(topo, (5, 9))
        for blocked in (6, 7, 4, 1):
            topo.remove_atom(blocked)
        topo.remove_atom(5)
        moves = vmap.shift_for_loss(5)
        assert moves == 2
        assert vmap.physical(5) == 9
        assert vmap.physical(9) == 13
        # Both moved roles are recorded, in shift order; a spare loss
        # records nothing.
        assert vmap.moved_roles == [5, 9]
        topo.remove_atom(14)
        vmap.shift_for_loss(14)
        assert vmap.moved_roles == [5, 9]

    def test_shift_skips_lost_spare(self):
        # Only south reachable, and its first site is itself lost: the
        # shift must land on the next active site beyond the hole.
        topo = Topology.square(4, 2.0)
        vmap = VirtualMap(topo, (5,))
        for blocked in (6, 7, 4, 1, 9):
            topo.remove_atom(blocked)
        topo.remove_atom(5)
        vmap.shift_for_loss(5)
        assert vmap.physical(5) == 13

    def test_no_spares_raises(self):
        # 1x-wide column fully occupied: no direction has a spare.
        topo = Topology.square(2, 1.0)
        vmap = VirtualMap(topo, (0, 1, 2, 3))
        topo.remove_atom(0)
        with pytest.raises(RemapFailed):
            vmap.shift_for_loss(0)

    def test_shift_count_accumulates(self):
        topo, vmap = fresh(roles=(5,))
        topo.remove_atom(5)
        vmap.shift_for_loss(5)
        assert vmap.shift_count == 1

    def test_mapping_stays_bijective_after_shifts(self):
        topo = Topology.square(5, 2.0)
        roles = (6, 7, 8, 11, 12, 13)
        vmap = VirtualMap(topo, roles)
        import numpy as np
        rng = np.random.default_rng(3)
        for _ in range(6):
            occupied = sorted(vmap.site_to_role)
            candidates = [s for s in topo.active_sites()]
            site = int(rng.choice(candidates))
            topo.remove_atom(site)
            try:
                vmap.shift_for_loss(site)
            except RemapFailed:
                break
            values = list(vmap.role_to_site.values())
            assert len(values) == len(set(values)) == len(roles)
            assert all(topo.is_active(s) for s in values)
            # Inverse map consistent.
            for role, site_now in vmap.role_to_site.items():
                assert vmap.site_to_role[site_now] == role
