"""2D grid of optical-tweezer sites.

The paper models the device as a regular square 2D array of trapped atoms
(§III-A).  A :class:`Grid` is the immutable geometry — site indices, their
(row, col) positions, Euclidean distances — while :class:`SiteSet`
(in :mod:`repro.hardware.topology`) layers the mutable occupancy (atom
loss) on top.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

Position = Tuple[int, int]


class _GridCaches:
    """Derived-geometry caches shared by all grids of one shape."""

    __slots__ = (
        "distance_rows",
        "neighbor_tables",
        "sorted_neighbor_tables",
        "center_order",
        "positions",
    )

    def __init__(self) -> None:
        self.distance_rows: Optional[List[List[float]]] = None
        self.neighbor_tables: Dict[int, List[Tuple[int, ...]]] = {}
        self.sorted_neighbor_tables: Dict[int, List[Tuple[int, ...]]] = {}
        self.center_order: Optional[List[int]] = None
        self.positions: Optional[List[Position]] = None


_GRID_CACHES: Dict[Tuple[int, int], _GridCaches] = {}


class Grid:
    """A ``rows x cols`` unit-pitch grid of sites.

    Sites are indexed row-major: site ``r * cols + c`` sits at ``(r, c)``.
    """

    def __init__(self, rows: int, cols: int):
        if rows <= 0 or cols <= 0:
            raise ValueError("grid dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.num_sites = rows * cols
        # Geometry caches are keyed by (rows, cols) and shared process-wide
        # so the many Grid instances a sweep materializes (one per
        # unpickled task payload / topology copy) reuse one distance table
        # instead of rebuilding it per instance.
        self._caches = _GRID_CACHES.setdefault((rows, cols), _GridCaches())

    @classmethod
    def square(cls, side: int) -> "Grid":
        return cls(side, side)

    # -- geometry -------------------------------------------------------------

    def position(self, site: int) -> Position:
        if not 0 <= site < self.num_sites:
            raise IndexError(f"site {site} outside grid of {self.num_sites}")
        return self.positions_list()[site]

    def positions_list(self) -> List[Position]:
        """Per-site ``(row, col)`` positions, cached (index = site)."""
        caches = self._caches
        if caches.positions is None:
            cols = self.cols
            caches.positions = [divmod(s, cols) for s in range(self.num_sites)]
        return caches.positions

    def sites(self) -> Iterator[int]:
        return iter(range(self.num_sites))

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance between two sites (unit pitch)."""
        if 0 <= a < self.num_sites and 0 <= b < self.num_sites:
            return self.distance_rows()[a][b]
        ra, ca = divmod(a, self.cols)
        rb, cb = divmod(b, self.cols)
        return math.hypot(ra - rb, ca - cb)

    def distance_rows(self) -> List[List[float]]:
        """The full pairwise distance table, ``rows()[a][b] == distance(a, b)``.

        Hot loops (routing, placement scoring) index rows directly instead
        of paying a method call per pair.  Entries are produced by the same
        ``math.hypot`` calls as :meth:`distance`, so values are
        bit-identical to computing distances on the fly.
        """
        caches = self._caches
        if caches.distance_rows is None:
            positions = self.positions_list()
            hypot = math.hypot
            caches.distance_rows = [
                [hypot(ra - rb, ca - cb) for rb, cb in positions]
                for ra, ca in positions
            ]
        return caches.distance_rows

    def max_distance(self) -> float:
        """Corner-to-corner distance — the MID giving all-to-all connectivity.

        For the paper's 10x10 device this is ``hypot(9, 9) ~= 12.73``,
        the "13" of its sweeps.
        """
        return math.hypot(self.rows - 1, self.cols - 1)

    def sites_by_center_distance(self) -> List[int]:
        """All sites ordered by distance from the grid's geometric center.

        Used by the initial mapper, which grows the placement outward from
        the device center (§III-A).
        """
        caches = self._caches
        if caches.center_order is None:
            center = ((self.rows - 1) / 2.0, (self.cols - 1) / 2.0)
            def key(site: int) -> Tuple[float, int]:
                r, c = divmod(site, self.cols)
                return (math.hypot(r - center[0], c - center[1]), site)
            caches.center_order = sorted(range(self.num_sites), key=key)
        return list(caches.center_order)

    # -- interaction neighborhoods ---------------------------------------------

    def neighbor_table(self, max_distance: float) -> List[Tuple[int, ...]]:
        """Per-site neighbor tuples (nearest-first offset order), cached.

        The geometry never changes, so the table is computed once per
        (grid, max_distance) and shared by every topology query.
        """
        key = round(max_distance * 1e9)
        table = self._caches.neighbor_tables.get(key)
        if table is None:
            offsets = _offsets_within(key)
            table = []
            for site in range(self.num_sites):
                row, col = divmod(site, self.cols)
                result = []
                for dr, dc in offsets:
                    r, c = row + dr, col + dc
                    if 0 <= r < self.rows and 0 <= c < self.cols:
                        result.append(r * self.cols + c)
                table.append(tuple(result))
            self._caches.neighbor_tables[key] = table
        return table

    def sorted_neighbor_table(self, max_distance: float) -> List[Tuple[int, ...]]:
        """Like :meth:`neighbor_table` but each tuple sorted by site index
        (the order BFS path searches consume)."""
        key = round(max_distance * 1e9)
        table = self._caches.sorted_neighbor_tables.get(key)
        if table is None:
            table = [
                tuple(sorted(nbrs)) for nbrs in self.neighbor_table(max_distance)
            ]
            self._caches.sorted_neighbor_tables[key] = table
        return table

    def __repr__(self) -> str:
        return f"Grid({self.rows}x{self.cols})"

    def __getstate__(self) -> Dict:
        # The geometry caches are derived data; keep pickles (compile
        # cache artifacts, spawn-pool task payloads) small.
        return {"rows": self.rows, "cols": self.cols}

    def __setstate__(self, state: Dict) -> None:
        self.__init__(state["rows"], state["cols"])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols

    def __hash__(self) -> int:
        return hash((self.rows, self.cols))


@lru_cache(maxsize=128)
def _offsets_within(scaled_distance: int) -> Tuple[Position, ...]:
    """Offsets with norm <= scaled_distance / 1e9, cached across grids."""
    max_distance = scaled_distance / 1e9
    limit = int(math.floor(max_distance + 1e-9))
    offsets = []
    for dr in range(-limit, limit + 1):
        for dc in range(-limit, limit + 1):
            if dr == 0 and dc == 0:
                continue
            if math.hypot(dr, dc) <= max_distance + 1e-9:
                offsets.append((dr, dc))
    # Sort nearest-first so greedy consumers prefer short swaps.
    offsets.sort(key=lambda o: (math.hypot(o[0], o[1]), o))
    return tuple(offsets)
