"""Virtual Remapping (§VI, Fig 9b).

Pure-hardware coping: on an interfering loss, shift the role table one
step toward the spare-richest edge (~40 ns per table update).  No gates
are ever added, so the success rate never erodes — but the moment any
scheduled interaction stretches beyond the device's true maximum
interaction distance, the only option is a reload.
"""

from __future__ import annotations

from typing import (AbstractSet, Dict, FrozenSet, Iterable, List, Optional,
                    Set, Tuple)

from repro.core.result import CompiledProgram, ScheduledOp
from repro.loss.strategies.base import CopingStrategy, LossOutcome
from repro.loss.virtual_map import RemapFailed, VirtualMap


def _too_far_apart(sites: List[int], rows, limit: float) -> bool:
    """Whether any pair of ``sites`` is farther apart than ``limit``."""
    for i in range(len(sites)):
        row = rows[sites[i]]
        for j in range(i + 1, len(sites)):
            if row[sites[j]] > limit:
                return True
    return False


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
        #: ``(program, distance limit, verdicts)`` of the last full scan:
        #: the indices overstretched under the identity map.
        self._scanned: Optional[
            Tuple[CompiledProgram, float, FrozenSet[int]]] = None

    def _reset_adaptation(self) -> None:
        if self.program is None:
            self.virtual_map = None
            return
        self.virtual_map = VirtualMap(self.topology, self.program.used_sites())
        limit = self._distance_limit()
        scanned = self._scanned
        if (scanned is not None and scanned[0] is self.program
                and scanned[1] == limit):
            # A reload restores the identity map on a full array, so the
            # first scan's verdicts (and the op index) still hold.
            self._violated = set(scanned[2])
            return
        self._ops = self.program.multiqubit_ops()
        self._ops_by_role = {}
        for index, op in enumerate(self._ops):
            for role in op.sites:
                self._ops_by_role.setdefault(role, []).append(index)
        self._violated = self._overstretched(range(len(self._ops)))
        self._scanned = (self.program, limit, frozenset(self._violated))

    def current_used_sites(self) -> AbstractSet[int]:
        if self.virtual_map is None:
            raise RuntimeError("strategy not started; call begin() first")
        return self.virtual_map.site_to_role.keys()

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
        if site not in self.virtual_map.site_to_role:
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
            self._violated -= stale
            self._violated |= self._overstretched(stale)
        return [self._ops[index] for index in sorted(self._violated)]

    def _overstretched(self, indices: Iterable[int]) -> Set[int]:
        """The ops among ``indices`` (into ``_ops``) with an operand pair
        too far apart under the current virtual map."""
        limit = self._distance_limit() + 1e-9
        rows = self.topology.grid.distance_rows()
        translate = self.virtual_map.role_to_site
        ops = self._ops
        return {
            index for index in indices
            if _too_far_apart([translate[role] for role in ops[index].sites],
                              rows, limit)
        }

    def _handle_violations(
        self, violated: List[ScheduledOp], remap_updates: int
    ) -> LossOutcome:
        """Plain virtual remapping has no fixup path: reload."""
        return LossOutcome.needs_reload()
