"""Occupancy-aware device topology.

Combines a :class:`~repro.hardware.grid.Grid` with the set of sites that
still hold an atom.  Atom loss (§VI) punches holes in the occupancy; the
compiler and the loss-coping strategies both query connectivity through
this class so "recompile on the sparser grid" is just "compile on a
Topology with more holes".
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.hardware.grid import Grid


class Topology:
    """A grid plus the set of lost (empty) sites and the interaction range."""

    def __init__(
        self,
        grid: Grid,
        max_interaction_distance: float,
        lost_sites: Optional[Iterable[int]] = None,
    ):
        if max_interaction_distance < 1.0:
            raise ValueError(
                "max interaction distance below 1 leaves the grid fully "
                f"disconnected (got {max_interaction_distance})"
            )
        self.grid = grid
        self.max_interaction_distance = float(max_interaction_distance)
        self._lost: Set[int] = set(lost_sites or ())
        for site in self._lost:
            if not 0 <= site < grid.num_sites:
                raise IndexError(f"lost site {site} outside grid")
        #: (source, target) -> shortest path, valid for the current hole
        #: pattern only (cleared on every occupancy change).  Routing asks
        #: for the same blocked pair timestep after timestep.
        self._path_cache: Dict[Tuple[int, int], Optional[List[int]]] = {}

    @classmethod
    def square(
        cls, side: int, max_interaction_distance: float
    ) -> "Topology":
        return cls(Grid.square(side), max_interaction_distance)

    def copy(self) -> "Topology":
        return Topology(self.grid, self.max_interaction_distance, self._lost)

    def with_interaction_distance(self, distance: float) -> "Topology":
        """Same grid and holes, different MID (used by compile-small)."""
        return Topology(self.grid, distance, self._lost)

    # -- occupancy ---------------------------------------------------------------

    @property
    def lost_sites(self) -> FrozenSet[int]:
        return frozenset(self._lost)

    @property
    def lost_view(self) -> Set[int]:
        """The live set of lost sites — read-only by contract.

        Hot loops (routing candidate scans) test membership against this
        set directly instead of paying a frozenset copy per query.
        """
        return self._lost

    def active_sites(self) -> List[int]:
        if not self._lost:
            return list(range(self.grid.num_sites))
        return [s for s in range(self.grid.num_sites) if s not in self._lost]

    @property
    def num_active(self) -> int:
        return self.grid.num_sites - len(self._lost)

    def is_active(self, site: int) -> bool:
        return 0 <= site < self.grid.num_sites and site not in self._lost

    def remove_atom(self, site: int) -> None:
        """Record loss of the atom at ``site``."""
        if site in self._lost:
            raise ValueError(f"site {site} already lost")
        if not 0 <= site < self.grid.num_sites:
            raise IndexError(f"site {site} outside grid")
        self._lost.add(site)
        self._path_cache.clear()

    def reload(self) -> None:
        """Refill every site (a full array reload)."""
        self._lost.clear()
        self._path_cache.clear()

    # -- interaction queries --------------------------------------------------

    def distance(self, a: int, b: int) -> float:
        return self.grid.distance(a, b)

    def can_interact(self, sites: Iterable[int]) -> bool:
        """Whether all (active) sites are pairwise within the MID."""
        if not isinstance(sites, (tuple, list)):
            sites = tuple(sites)
        n = len(sites)
        num_sites = self.grid.num_sites
        lost = self._lost
        limit = self.max_interaction_distance + 1e-9
        if n == 2:
            a, b = sites
            return (
                0 <= a < num_sites and a not in lost
                and 0 <= b < num_sites and b not in lost
                and self.grid.distance_rows()[a][b] <= limit
            )
        if n == 3:
            a, b, c = sites
            if not (
                0 <= a < num_sites and a not in lost
                and 0 <= b < num_sites and b not in lost
                and 0 <= c < num_sites and c not in lost
            ):
                return False
            rows = self.grid.distance_rows()
            row_a = rows[a]
            return (
                row_a[b] <= limit
                and row_a[c] <= limit
                and rows[b][c] <= limit
            )
        for site in sites:
            if not self.is_active(site):
                return False
        rows = self.grid.distance_rows()
        for i in range(n):
            row = rows[sites[i]]
            for j in range(i + 1, n):
                if row[sites[j]] > limit:
                    return False
        return True

    # -- graph queries ------------------------------------------------------------

    def shortest_path(self, source: int, target: int) -> Optional[List[int]]:
        """Shortest active-site path (by hops) from ``source`` to ``target``.

        Returns ``None`` when disconnected.  Ties break toward smaller site
        index for determinism.
        """
        if not (self.is_active(source) and self.is_active(target)):
            return None
        if source == target:
            return [source]
        key = (source, target)
        if key in self._path_cache:
            cached = self._path_cache[key]
            return None if cached is None else list(cached)
        table = self.grid.sorted_neighbor_table(self.max_interaction_distance)
        lost = self._lost
        parent: Dict[int, int] = {source: source}
        queue = deque([source])
        result: Optional[List[int]] = None
        while queue:
            site = queue.popleft()
            for nbr in table[site]:
                if nbr in lost or nbr in parent:
                    continue
                parent[nbr] = site
                if nbr == target:
                    path = [target]
                    while path[-1] != source:
                        path.append(parent[path[-1]])
                    result = list(reversed(path))
                    queue.clear()
                    break
                queue.append(nbr)
        self._path_cache[key] = None if result is None else list(result)
        return result

    def __repr__(self) -> str:
        return (
            f"Topology({self.grid!r}, MID={self.max_interaction_distance}, "
            f"lost={len(self._lost)})"
        )
