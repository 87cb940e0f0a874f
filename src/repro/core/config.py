"""Compiler configuration.

One :class:`CompilerConfig` captures every knob the paper sweeps:

* ``max_interaction_distance`` — the MID, from 1 (superconducting-like)
  to the device diagonal (all-to-all);
* restriction-zone shape and scale (``f(d) = d/2`` by default, ``"none"``
  for the idealized Fig 5 baseline, ``zone_scale > 1`` for the crosstalk
  extension mentioned in §IV-A);
* ``native_max_arity`` — 3 to execute Toffolis natively, 2 to force the
  decomposed mode of Fig 6;
* lookahead depth/decay of the §III-A weight function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.hardware.restriction import RADIUS_FUNCTIONS, RestrictionModel


@dataclass(frozen=True)
class CompilerConfig:
    """All policy knobs for one compilation."""

    #: Maximum Euclidean interaction distance (>= 1).
    max_interaction_distance: float = 3.0
    #: Restriction-zone radius as a function of gate span: "half" (paper),
    #: "full", or "none" (idealized parallel baseline).
    restriction_radius: str = "half"
    #: Multiplier on the zone radius (crosstalk-suppression extension).
    zone_scale: float = 1.0
    #: Largest gate arity executed natively; larger gates are decomposed
    #: before mapping.  2 reproduces the paper's "decomposed" mode.
    native_max_arity: int = 3
    #: How many future DAG layers the lookahead weight function examines.
    lookahead_layers: int = 10
    #: Exponential decay rate of the lookahead weight, w = e^{-decay * |dl|}.
    lookahead_decay: float = 1.0
    #: Layers examined when computing the *initial* placement weights
    #: (deeper than the routing lookahead since placement is one-shot).
    initial_mapping_layers: int = 40
    #: Depth units charged per routing SWAP (3 = its CX decomposition).
    swap_depth_cost: int = 3
    #: Gate-count units charged per routing SWAP in reported metrics.
    swap_gate_cost: int = 3
    #: Hard cap on scheduler timesteps, as a multiple of (gates + 1) (>= 1).
    #: The scheduler raises :class:`SchedulingStalledError` when a compile
    #: reaches it, or as soon as it detects a livelock that would; the cap
    #: remains the backstop for stalls that never repeat a mapping.
    max_timestep_factor: int = 200

    def __post_init__(self) -> None:
        # NaN passes every comparison below; inf is a valid all-to-all
        # MID and stays allowed.
        for name in ("max_interaction_distance", "zone_scale",
                     "lookahead_decay"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got NaN")
        if self.max_interaction_distance < 1.0:
            raise ValueError("max_interaction_distance must be >= 1")
        if self.restriction_radius not in RADIUS_FUNCTIONS:
            raise ValueError(
                f"restriction_radius must be one of {sorted(RADIUS_FUNCTIONS)}"
            )
        if self.zone_scale < 0:
            raise ValueError("zone_scale must be non-negative")
        if self.native_max_arity < 2:
            raise ValueError("native_max_arity must be >= 2")
        if self.lookahead_layers < 1:
            raise ValueError("lookahead_layers must be >= 1")
        if self.lookahead_decay <= 0:
            raise ValueError("lookahead_decay must be positive")
        if self.swap_depth_cost < 1 or self.swap_gate_cost < 1:
            raise ValueError("swap costs must be >= 1")
        if self.max_timestep_factor < 1:
            raise ValueError("max_timestep_factor must be >= 1")

    # -- derived -----------------------------------------------------------------

    def restriction_model(self) -> RestrictionModel:
        return RestrictionModel(
            RADIUS_FUNCTIONS[self.restriction_radius], self.zone_scale
        )

    # -- variants ----------------------------------------------------------------

    def with_mid(self, max_interaction_distance: float) -> "CompilerConfig":
        return replace(self, max_interaction_distance=max_interaction_distance)

    def decomposed(self) -> "CompilerConfig":
        """Force lowering to one- and two-qubit gates (Fig 6 baseline)."""
        return replace(self, native_max_arity=2)

    @classmethod
    def neutral_atom(
        cls, max_interaction_distance: float = 3.0, **overrides
    ) -> "CompilerConfig":
        """The paper's NA configuration at a given MID."""
        return cls(max_interaction_distance=max_interaction_distance, **overrides)

    @classmethod
    def superconducting_like(cls, **overrides) -> "CompilerConfig":
        """MID 1, no zones, all gates decomposed — emulates an SC grid device.

        This is both the paper's comparison baseline (§V) and its
        compiler-validation configuration (§III-A).
        """
        defaults = dict(
            max_interaction_distance=1.0,
            restriction_radius="none",
            native_max_arity=2,
        )
        defaults.update(overrides)
        return cls(**defaults)
