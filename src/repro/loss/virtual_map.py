"""Virtual site remapping (§VI, Fig 9b).

The compiled program addresses *roles* — the sites the compiler assigned.
Hardware keeps a lookup table translating each role to the physical site
currently playing it (a ~40 ns update, borrowed from DRAM sparing).  When
an in-use atom is lost, the roles along a row or column shift by one
toward the spare-richest edge, consuming one spare atom.

The map never moves atoms; it reassigns meaning.  Interactions the
compiler scheduled at distance d can therefore stretch beyond the MID —
detecting and coping with that is the strategies' job.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.hardware.topology import Topology

#: Cardinal directions as (d_row, d_col), in deterministic tie-break order.
DIRECTIONS: Tuple[Tuple[int, int], ...] = ((0, 1), (0, -1), (1, 0), (-1, 0))


@lru_cache(maxsize=None)
def _lines(
    rows: int, cols: int, direction: Tuple[int, int]
) -> Tuple[Tuple[int, ...], ...]:
    """Per site, the sites from it (exclusive) to the edge along
    ``direction``, nearest first.  Pure geometry: built once per grid
    shape and direction; the spare search filters it by occupancy."""
    d_row, d_col = direction
    lines = []
    for site in range(rows * cols):
        row, col = divmod(site, cols)
        line = []
        row, col = row + d_row, col + d_col
        while 0 <= row < rows and 0 <= col < cols:
            line.append(row * cols + col)
            row, col = row + d_row, col + d_col
        lines.append(tuple(line))
    return tuple(lines)


class RemapFailed(RuntimeError):
    """No direction had a spare atom to absorb the shift."""


class VirtualMap:
    """Role-site -> physical-site lookup table."""

    def __init__(self, topology: Topology, used_roles) -> None:
        self.topology = topology
        #: role -> physical site currently playing it.
        self.role_to_site: Dict[int, int] = {r: r for r in used_roles}
        self.site_to_role: Dict[int, int] = {r: r for r in used_roles}
        #: Total role shifts performed (each is one ~40 ns table update).
        self.shift_count = 0
        #: Roles moved by shifts since the owner last cleared the list, in
        #: shift order (a role moved twice appears twice).  Lets a strategy
        #: re-check only the interactions whose operands moved.
        self.moved_roles: List[int] = []

    def physical(self, role: int) -> int:
        """Physical site currently playing ``role``."""
        return self.role_to_site[role]

    # -- the shift ------------------------------------------------------------------

    def _line(self, site: int, direction: Tuple[int, int]) -> Tuple[int, ...]:
        """Every site from ``site`` (exclusive) to the edge, lost or not."""
        grid = self.topology.grid
        if not 0 <= site < grid.num_sites:
            raise IndexError(f"site {site} outside grid of {grid.num_sites}")
        return _lines(grid.rows, grid.cols, direction)[site]

    def spares_toward_edge(self, site: int, direction: Tuple[int, int]) -> int:
        """Active, unoccupied atoms along ``direction`` from ``site`` to edge."""
        lost = self.topology.lost_view
        occupied = self.site_to_role
        count = 0
        for candidate in self._line(site, direction):
            if candidate not in lost and candidate not in occupied:
                count += 1
        return count

    def _spare_line(
        self, site: int, direction: Tuple[int, int]
    ) -> Tuple[List[int], List[int]]:
        """Walk from ``site`` (exclusive) to the edge.

        Returns ``(active_line, spare_sites)``: the active sites along the
        walk in order, and the subset that are unoccupied (spares).
        """
        lost = self.topology.lost_view
        active_line = [s for s in self._line(site, direction) if s not in lost]
        occupied = self.site_to_role
        return active_line, [s for s in active_line if s not in occupied]

    def best_direction(self, site: int) -> Optional[Tuple[int, int]]:
        """Direction with the most spares from ``site`` to the edge, or
        ``None`` when every direction is spare-free."""
        best = None
        best_count = 0
        for direction in DIRECTIONS:
            count = self.spares_toward_edge(site, direction)
            if count > best_count:
                best_count = count
                best = direction
        return best

    def shift_for_loss(self, lost_site: int) -> int:
        """Handle loss of the atom at physical ``lost_site``.

        The role chain from the lost site toward the spare-richest edge
        shifts one active site outward; the first spare absorbs it.
        Returns the number of role reassignments performed.  Raises
        :class:`RemapFailed` when no direction has a spare.

        The caller must already have marked ``lost_site`` lost in the
        topology (so it is neither active nor a candidate spare).
        """
        role = self.site_to_role.get(lost_site)
        if role is None:
            return 0  # Spare atom lost: nothing to reassign.
        direction = self.best_direction(lost_site)
        if direction is None:
            raise RemapFailed(
                f"no spare atoms in any direction from site {lost_site}"
            )
        active_line, _spares = self._spare_line(lost_site, direction)

        # Shift roles outward along the active line until the first spare.
        moves = 0
        carried_role = role
        self.site_to_role.pop(lost_site)
        for candidate in active_line:
            displaced = self.site_to_role.get(candidate)
            self.site_to_role[candidate] = carried_role
            self.role_to_site[carried_role] = candidate
            self.moved_roles.append(carried_role)
            moves += 1
            if displaced is None:
                break  # Spare absorbed the shift.
            carried_role = displaced
        self.shift_count += moves
        return moves
