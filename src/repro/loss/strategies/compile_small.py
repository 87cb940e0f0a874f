"""Compile Small strategies (§VI).

Compile the program for an interaction distance *below* the device's true
maximum.  Most of the gate-count benefit of long range arrives in the
first few distance increments (Fig 3), so compiling one notch down costs
little — and buys slack: remap shifts can stretch interactions past the
compiled distance without exceeding what the hardware can actually do.

Two variants, exactly as in the paper:

* :class:`CompileSmall` — slack + virtual remapping; reload when the
  *true* maximum is exceeded.
* :class:`CompileSmallReroute` — the same compile, with Minor Rerouting's
  SWAP-chain fixups on top.  The paper's balanced recommendation.
"""

from __future__ import annotations

from typing import Optional

from repro.circuits.circuit import Circuit
from repro.core.config import CompilerConfig
from repro.exec.cache import cached_compile
from repro.core.result import CompiledProgram
from repro.hardware.noise import NoiseModel
from repro.hardware.topology import Topology
from repro.loss.strategies.reroute import MinorReroute
from repro.loss.strategies.virtual_remap import VirtualRemap

#: The paper compiles "to one less than the maximum interaction distance"
#: and has no entries at MID 2 (it never compiles to distance 1).
DEFAULT_MARGIN = 1.0
MINIMUM_COMPILED_DISTANCE = 2.0


def compiled_distance(true_distance: float, margin: float = DEFAULT_MARGIN) -> float:
    """The reduced distance the program is compiled for."""
    reduced = true_distance - margin
    if reduced < MINIMUM_COMPILED_DISTANCE:
        raise ValueError(
            f"compile-small needs a true MID of at least "
            f"{MINIMUM_COMPILED_DISTANCE + margin} (got {true_distance}); "
            "the paper likewise has no compile-small entries at MID 2"
        )
    return reduced


class _SmallCompile:
    """The initial compile both variants share: at ``margin`` below the
    true MID (see :func:`compiled_distance`)."""

    margin: float

    def _initial_compile(
        self,
        circuit: Circuit,
        topology: Topology,
        config: CompilerConfig,
    ) -> CompiledProgram:
        reduced = compiled_distance(topology.max_interaction_distance, self.margin)
        small_topology = topology.with_interaction_distance(reduced)
        small_config = config.with_mid(reduced)
        return cached_compile(circuit, small_topology, small_config)


class CompileSmall(_SmallCompile, VirtualRemap):
    """Compile at MID - margin; remap; reload when the true MID is exceeded."""

    name = "compile small"

    def __init__(self, margin: float = DEFAULT_MARGIN) -> None:
        super().__init__()
        self.margin = margin

    # _distance_limit stays the TRUE device maximum (inherited behaviour
    # reads it from self.topology, which keeps the full MID) — that is the
    # whole point of the slack.


class CompileSmallReroute(_SmallCompile, MinorReroute):
    """Compile small + Minor Rerouting fixups (the paper's balanced pick)."""

    name = "c. small+reroute"

    def __init__(
        self,
        margin: float = DEFAULT_MARGIN,
        noise: Optional[NoiseModel] = None,
        success_drop_factor: float = 0.5,
    ) -> None:
        super().__init__(noise=noise, success_drop_factor=success_drop_factor)
        self.margin = margin
