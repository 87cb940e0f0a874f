"""Plane geometry for the 2D atom grid.

Sites live at integer coordinates on a unit-pitch grid.  Distances are
Euclidean (the paper's interaction criterion ``d(u, v) <= d_max`` and its
restriction-zone radii are Euclidean lengths).  Boundary comparisons use
the small epsilon :data:`EPS` so cases such as two zones exactly touching
resolve the same way on every platform.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

Point = Tuple[float, float]

#: Tolerance for boundary comparisons.  Zones that exactly touch are treated
#: as non-overlapping (open disks), matching the paper's "zones do not
#: intersect" wording for gates allowed to run in parallel.
EPS = 1e-9


def euclidean(a: Point, b: Point) -> float:
    """Euclidean distance between two grid points."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def max_pairwise_distance(points: Sequence[Point]) -> float:
    """Largest pairwise Euclidean distance among ``points``.

    This is the ``d`` that parameterizes a multiqubit gate's restriction
    zone ``f(d) = d / 2``.  A single point yields 0.0.
    """
    best = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            dist = euclidean(points[i], points[j])
            if dist > best:
                best = dist
    return best
