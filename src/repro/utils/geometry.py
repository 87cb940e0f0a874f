"""Plane geometry for the 2D atom grid.

Sites live at integer coordinates on a unit-pitch grid.  Distances are
Euclidean (the paper's interaction criterion ``d(u, v) <= d_max`` and its
restriction-zone radii are Euclidean lengths).  All predicates use a small
epsilon so boundary cases (e.g. two zones exactly touching) resolve the
same way on every platform.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

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


def point_in_disk(point: Point, center: Point, radius: float) -> bool:
    """Whether ``point`` lies strictly inside the open disk."""
    return euclidean(point, center) < radius - EPS


def disks_overlap(c1: Point, r1: float, c2: Point, r2: float) -> bool:
    """Whether two open disks intersect.

    Tangent disks (distance exactly ``r1 + r2``) do not overlap; this is the
    permissive reading that lets maximally packed parallel gates execute.
    """
    return euclidean(c1, c2) < r1 + r2 - EPS


def bounding_box(points: Iterable[Point]) -> Tuple[float, float, float, float]:
    """Axis-aligned bounding box ``(min_x, min_y, max_x, max_y)``."""
    pts = list(points)
    if not pts:
        raise ValueError("bounding_box of empty point set")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return min(xs), min(ys), max(xs), max(ys)
