"""Virtual Remapping (§VI, Fig 9b).

Pure-hardware coping: on an interfering loss, shift the role table one
step toward the spare-richest edge (~40 ns per table update).  No gates
are ever added, so the success rate never erodes — but the moment any
scheduled interaction stretches beyond the device's true maximum
interaction distance, the only option is a reload.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.core.result import CompiledProgram, ScheduledOp
from repro.hardware.topology import Topology
from repro.loss.strategies.base import CopingStrategy, LossOutcome
from repro.loss.virtual_map import RemapFailed, VirtualMap


class VirtualRemap(CopingStrategy):
    """Shift roles into spares; reload when an interaction overstretches."""

    name = "virtual remapping"

    def __init__(self) -> None:
        super().__init__()
        self.virtual_map: Optional[VirtualMap] = None
        #: The program's multiqubit ops, in program order.
        self._ops: List[ScheduledOp] = []
        #: role -> indices into ``_ops`` of the ops that address it.
        self._ops_by_role: Dict[int, List[int]] = {}
        #: Indices into ``_ops`` of the ops overstretched under the
        #: current virtual map, as of the last ``_violated_ops`` call.
        self._violated: Set[int] = set()

    def _reset_adaptation(self) -> None:
        if self.program is None:
            self.virtual_map = None
            return
        self.virtual_map = VirtualMap(self.topology, self.program.used_sites())
        self._ops = self.program.multiqubit_ops()
        self._ops_by_role = {}
        for index, op in enumerate(self._ops):
            for role in op.sites:
                self._ops_by_role.setdefault(role, []).append(index)
        self._violated = {
            index for index, op in enumerate(self._ops)
            if self._overstretched(op.sites)
        }

    def current_used_sites(self) -> set:
        if self.virtual_map is None:
            raise RuntimeError("strategy not started; call begin() first")
        return self.virtual_map.occupied_sites()

    def current_measured_sites(self) -> set:
        if self.virtual_map is None:
            raise RuntimeError("strategy not started; call begin() first")
        translate = self.virtual_map.role_to_site
        return {translate[s] for s in self.program.measured_sites()}

    # -- the distance the adapted program must respect ---------------------------------

    def _distance_limit(self) -> float:
        """Interactions may stretch up to the device's true MID.

        For plain virtual remapping the compiled MID *is* the device MID;
        the compile-small variants override this.
        """
        return self.topology.max_interaction_distance

    def on_loss(self, site: int) -> LossOutcome:
        occupied = self.virtual_map.occupied_sites()
        if site not in occupied:
            return LossOutcome.spare_loss()
        try:
            updates = self.virtual_map.shift_for_loss(site)
        except RemapFailed:
            return LossOutcome.needs_reload()
        violated = self._violated_ops()
        if violated:
            return self._handle_violations(violated, updates)
        return LossOutcome(
            coped=True, interfering=True, remap_updates=updates
        )

    # -- violation scanning -----------------------------------------------------------------

    def _violated_ops(self) -> List[ScheduledOp]:
        """Scheduled multiqubit ops whose remapped operands overstretch,
        in program order.

        Distances are static and only role moves change an op's verdict,
        so only the ops addressing roles moved since the last call are
        re-checked; the rest keep their verdict from the full scan made
        when the adaptation was reset.
        """
        moved = self.virtual_map.moved_roles
        if moved:
            stale = {index for role in moved
                     for index in self._ops_by_role.get(role, ())}
            moved.clear()
            for index in stale:
                if self._overstretched(self._ops[index].sites):
                    self._violated.add(index)
                else:
                    self._violated.discard(index)
        return [self._ops[index] for index in sorted(self._violated)]

    def _overstretched(self, roles: Sequence[int]) -> bool:
        """Whether any operand pair of an op on ``roles`` is too far apart."""
        limit = self._distance_limit() + 1e-9
        rows = self.topology.grid.distance_rows()
        translate = self.virtual_map.role_to_site
        sites = [translate[role] for role in roles]
        for i in range(len(sites)):
            row = rows[sites[i]]
            for j in range(i + 1, len(sites)):
                if row[sites[j]] > limit:
                    return True
        return False

    def _handle_violations(
        self, violated: List[ScheduledOp], remap_updates: int
    ) -> LossOutcome:
        """Plain virtual remapping has no fixup path: reload."""
        return LossOutcome.needs_reload()
