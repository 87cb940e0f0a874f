"""Coping-strategy contract (§VI).

A strategy owns one compiled program and reacts to atom-loss events.  The
shot runner drives it:

1. ``begin(circuit, topology, config)`` — compile and reset state.  The
   topology object is shared with the runner, which marks atoms lost.
2. ``on_loss(site)`` — adapt to the loss of a (possibly spare) atom.
   Returns a :class:`LossOutcome` describing what it did and what it cost.
3. ``after_reload()`` — the runner reloaded the array; restore the
   original program (recompilation is NOT needed: the initial compile
   assumed a full grid).

Strategies also expose ``current_added_swaps`` and
``current_success_multiplier`` so success-rate erosion from fixups
(Fig 11) can be charged per shot.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import AbstractSet, Optional

from repro.circuits.circuit import Circuit
from repro.core.config import CompilerConfig
from repro.core.result import CompiledProgram
from repro.exec.cache import cached_compile
from repro.hardware.noise import NoiseModel
from repro.hardware.topology import Topology


@dataclass(frozen=True)
class LossOutcome:
    """What a strategy did about one lost atom."""

    #: False when the strategy cannot cope and the array must be reloaded.
    coped: bool
    #: Whether the loss touched the program at all (spare losses don't).
    interfering: bool
    #: SWAP gates newly added to the executed circuit by this event.
    swaps_added: int = 0
    #: Role-table updates performed (each costs ``TimingModel.remap_time``).
    remap_updates: int = 0
    #: Whether a software reroute/fixup computation ran (costs
    #: ``TimingModel.reroute_fixup_time``).
    ran_fixup_search: bool = False
    #: Wall-clock seconds of recompilation, when the strategy recompiled.
    recompile_seconds: float = 0.0

    @classmethod
    def spare_loss(cls) -> "LossOutcome":
        return cls(coped=True, interfering=False)

    @classmethod
    def needs_reload(cls) -> "LossOutcome":
        return cls(coped=False, interfering=True)


def max_swap_budget(noise: NoiseModel, drop_factor: float = 0.5) -> int:
    """Largest number of fixup SWAPs whose error keeps success above
    ``drop_factor`` of the original.

    The paper's example: at a 96.5% two-qubit fidelity, a 50% drop budget
    allows six SWAPs (each SWAP is three two-qubit gates).

    ``drop_factor`` must lie in ``(0, 1]``: zero or negative values have
    no finite budget and values above 1 would demand fixups *increase*
    success.
    """
    if not 0.0 < drop_factor <= 1.0:
        raise ValueError(
            f"drop_factor must be in (0, 1], got {drop_factor!r}"
        )
    fidelity = noise.fidelity(2)
    if fidelity >= 1.0:
        return 10**9
    return int(math.floor(math.log(drop_factor) / (3.0 * math.log(fidelity))))


class CopingStrategy(ABC):
    """Base class for the paper's six §VI strategies."""

    #: Short name used in experiment tables (matches the paper's legend).
    name: str = "base"

    def __init__(self) -> None:
        self.source: Optional[Circuit] = None
        self.topology: Optional[Topology] = None
        self.config: Optional[CompilerConfig] = None
        self.program: Optional[CompiledProgram] = None
        #: Cumulative SWAPs added on top of the compiled program while the
        #: current hole pattern persists.
        self.added_swaps: int = 0

    # -- lifecycle --------------------------------------------------------------------

    def begin(
        self,
        circuit: Circuit,
        topology: Topology,
        config: CompilerConfig,
    ) -> CompiledProgram:
        """Compile ``circuit`` and reset all per-run state."""
        self.source = circuit
        self.topology = topology
        self.config = config
        self.added_swaps = 0
        self.program = self._initial_compile(circuit, topology, config)
        self._reset_adaptation()
        return self.program

    def after_reload(self) -> None:
        """The array was reloaded: every site is occupied again."""
        self.added_swaps = 0
        self._reset_adaptation()

    # -- per-event hook ------------------------------------------------------------------

    @abstractmethod
    def on_loss(self, site: int) -> LossOutcome:
        """React to the loss of the atom at physical ``site``.

        Called after the runner marked the site lost in the topology.
        """

    # -- current physical footprint ------------------------------------------------------

    def current_used_sites(self) -> AbstractSet[int]:
        """Physical sites the adapted program currently relies on.

        Losses outside this set are spare losses (no shot invalidated).
        Subclasses with a virtual map translate roles to physical sites.
        Read-only: the shot loop asks on every shot, so this may be a
        shared or live view rather than a fresh set.
        """
        if self.program is None:
            raise RuntimeError("strategy not started; call begin() first")
        return self.program.used_sites()

    def current_measured_sites(self) -> set:
        """Physical sites read out at the end of each shot."""
        if self.program is None:
            raise RuntimeError("strategy not started; call begin() first")
        return self.program.measured_sites()

    # -- success accounting -------------------------------------------------------------

    def shot_success_rate(self, noise: NoiseModel) -> float:
        """Expected success of one shot of the *currently adapted* program."""
        if self.program is None:
            raise RuntimeError("strategy not started; call begin() first")
        base = self.program.success_rate(noise)
        penalty = noise.fidelity(2) ** (3 * self.added_swaps)
        return base * penalty

    # -- subclass hooks ----------------------------------------------------------------------

    def _initial_compile(
        self,
        circuit: Circuit,
        topology: Topology,
        config: CompilerConfig,
    ) -> CompiledProgram:
        """Default: compile at the topology's full interaction distance.

        Routed through the active session's compile cache: every
        strategy (and every sweep worker) asking for the same
        pristine-grid compilation shares one artifact.  Cached programs
        are shared — strategies must replace ``self.program``, never
        mutate it.
        """
        return cached_compile(circuit, topology, config)

    def _reset_adaptation(self) -> None:
        """Clear any adaptation state (virtual maps, fixups)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
