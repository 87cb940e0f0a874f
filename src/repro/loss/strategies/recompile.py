"""Always Full Recompile (§VI).

On every interfering loss, re-run the whole compiler against the
now-sparser topology.  Tolerates the most loss of any strategy — it fails
only when the active graph disconnects or runs out of atoms — but each
event costs full software compilation, which exceeds the array reload
time (the reason it is excluded from Fig 12's overhead chart).

Lowering (decomposition, DAG, placement weights and order) depends on no
lost atom, so the strategy lowers its circuit once and reruns only the
topology stage — placement and routing — on each loss.  Every recompiled
program still reports a whole compile's ``compile_seconds``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.compiler import LoweredCircuit, lower_circuit, stage_config
from repro.core.errors import CompilationError
from repro.core.result import CompiledProgram
from repro.exec.cache import cached_compile
from repro.loss.strategies.base import CopingStrategy, LossOutcome


class AlwaysRecompile(CopingStrategy):
    """Recompile from scratch on every interfering loss."""

    name = "recompile"

    def __init__(self) -> None:
        super().__init__()
        self._pristine_program: Optional[CompiledProgram] = None
        #: ``source`` lowered under ``config`` at the topology's MID; built
        #: on the first interfering loss, kept across reloads.
        self._lowered: Optional[LoweredCircuit] = None

    def on_loss(self, site: int) -> LossOutcome:
        if site not in self.program.used_sites():
            return LossOutcome.spare_loss()
        if self._lowered is None:
            self._lowered = lower_circuit(
                self.source, stage_config(self.source, self.topology,
                                          self.config))
        try:
            # persist=False: transient hole patterns essentially never
            # recur, so the result is looked up but never stored — in
            # either cache tier.
            recompiled = cached_compile(
                self._lowered, self.topology, self.config, persist=False
            )
        except CompilationError:
            return LossOutcome.needs_reload()
        previous_swaps = self.program.swap_count
        self.program = recompiled
        # Success erosion shows up directly in the recompiled program's own
        # swap census, not in `added_swaps`; but we track the growth so the
        # runner's per-shot success uses the up-to-date program.
        self.added_swaps = 0
        return LossOutcome(
            coped=True,
            interfering=True,
            swaps_added=max(0, recompiled.swap_count - previous_swaps),
            recompile_seconds=recompiled.compile_seconds,
        )

    def after_reload(self) -> None:
        """Reload restores the full grid; recompile for it once.

        The original program (compiled for the pristine grid at begin())
        is still valid, so we simply restore it instead of recompiling.
        """
        super().after_reload()
        # The program compiled in begin() targeted the full grid; recompiling
        # after a reload would produce the same artifact, so reuse it.
        if self._pristine_program is not None:
            self.program = self._pristine_program

    def begin(self, circuit, topology, config):
        lowered = self._lowered
        if lowered is not None and (
            lowered.source is not circuit
            or lowered.config != stage_config(circuit, topology, config)
        ):
            self._lowered = None
        program = super().begin(circuit, topology, config)
        self._pristine_program = program
        return program
