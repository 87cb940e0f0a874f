"""Restriction zones around Rydberg interactions.

A multiqubit gate whose operands span a maximum pairwise distance ``d``
blocks every qubit closer than ``f(d)`` to any of its operands (§IV-A).
The paper — and our default — uses ``f(d) = d / 2``.  Two gates may run in
the same timestep only if their zones do not intersect.

The zone of a k-qubit gate is the union of open disks of radius ``f(d)``
centered on each operand.  Single-qubit gates get radius 0: they conflict
only when they sit inside another gate's zone (or share a qubit, which the
DAG already serializes).

The paper also notes zones can be *artificially extended* to suppress
crosstalk; ``zone_scale > 1`` models that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.utils.geometry import (
    EPS,
    Point,
    max_pairwise_distance,
)

RadiusFunction = Callable[[float], float]


def half_distance(d: float) -> float:
    """The paper's restriction radius, ``f(d) = d / 2``."""
    return d / 2.0


def full_distance(d: float) -> float:
    """A harsher alternative, ``f(d) = d`` (ablation)."""
    return d


def no_restriction(d: float) -> float:
    """Zone-free execution (the idealized baseline of Fig 5)."""
    return 0.0


def global_restriction(d: float) -> float:
    """A device-wide zone for any entangling interaction.

    Models a single-trap trapped-ion machine (the paper's Discussion):
    the shared phonon bus gives all-to-all connectivity but only one
    entangling gate can run at a time, and single-qubit gates elsewhere
    are blocked while it does.  Single-qubit gates (span 0) keep a zero
    zone so they may still pair with each other.
    """
    if d <= 0.0:
        return 0.0
    return 1e9


RADIUS_FUNCTIONS = {
    "half": half_distance,
    "full": full_distance,
    "none": no_restriction,
    "global": global_restriction,
}


@dataclass(frozen=True)
class Zone:
    """The restriction zone of one scheduled gate."""

    centers: Tuple[Point, ...]
    radius: float

    def intersects(self, other: "Zone") -> bool:
        """Open-disk union intersection test between two zones."""
        r1 = self.radius
        r2 = other.radius
        overlap_limit = r1 + r2 - EPS
        hyp = math.hypot
        for x1, y1 in self.centers:
            for c2 in other.centers:
                dist = hyp(x1 - c2[0], y1 - c2[1])
                if dist < overlap_limit:
                    return True
                # A radius-0 zone (single-qubit gate) still conflicts when
                # its center sits inside the other zone's disks.
                if r1 <= EPS and dist < r2 - EPS:
                    return True
                if r2 <= EPS and dist < r1 - EPS:
                    return True
        return False


class RestrictionModel:
    """Builds zones and answers parallelism queries for one device config."""

    def __init__(
        self,
        radius_function: RadiusFunction = half_distance,
        zone_scale: float = 1.0,
    ):
        if isinstance(radius_function, str):
            radius_function = RADIUS_FUNCTIONS[radius_function]
        if zone_scale < 0:
            raise ValueError("zone_scale must be non-negative")
        self.radius_function = radius_function
        self.zone_scale = zone_scale

    @property
    def disabled(self) -> bool:
        """Whether this model never blocks anything (f == 0 everywhere)."""
        return self.radius_function is no_restriction or self.zone_scale == 0.0

    def zone_for(self, positions: Sequence[Point]) -> Zone:
        """Zone of a gate whose operands sit at ``positions``."""
        return self.zone_for_span(positions, max_pairwise_distance(positions))

    def zone_for_span(self, positions: Sequence[Point], span: float) -> Zone:
        """Zone of a gate whose max pairwise operand distance is already
        known (the scheduler reads it off the grid's distance table)."""
        radius = self.radius_function(span) * self.zone_scale
        return Zone(tuple(positions), radius)

    def conflict(self, a: Sequence[Point], b: Sequence[Point]) -> bool:
        """Whether gates at operand positions ``a`` and ``b`` may NOT run
        in parallel.

        Sharing a site is always a conflict; otherwise it is a zone
        intersection test (skipped entirely when zones are disabled).
        """
        shared = set(a) & set(b)
        if shared:
            return True
        if self.disabled:
            return False
        return self.zone_for(a).intersects(self.zone_for(b))


def max_parallel_gates(
    model: RestrictionModel, gates_positions: List[Sequence[Point]]
) -> List[int]:
    """Greedy maximal conflict-free subset of gates (by list order).

    The scheduler uses this shape of greedy selection; exposed here for
    direct testing of the zone semantics against the paper's Fig 1 example.
    """
    chosen: List[int] = []
    zones: List[Zone] = []
    for idx, positions in enumerate(gates_positions):
        zone = model.zone_for(positions)
        sites_taken = {p for i in chosen for p in gates_positions[i]}
        if set(positions) & sites_taken:
            continue
        if any(zone.intersects(z) for z in zones):
            continue
        chosen.append(idx)
        zones.append(zone)
    return chosen
