"""Zone-aware layer scheduler (§III-A).

Proceeds timestep by timestep.  In each timestep it greedily commits, in
program order:

1. every frontier gate whose operands are within the MID and whose
   restriction zone avoids the zones already committed this timestep;
2. one routing SWAP per remaining too-far frontier gate, chosen by
   :func:`repro.core.routing.propose_swap`, subject to the same zone and
   busy-site constraints ("the SWAP is executed if it can run parallel
   with the other executable operations, otherwise we must wait").

SWAP effects apply between timesteps (parallel semantics).

Stalls happen on connected topologies too: on hole-riddled grids
(recompilation after atom loss) the BFS fallback can swap two operands
of one gate back and forth forever.  The scheduler raises
:class:`SchedulingStalledError` when the loop reaches a timestep budget
of ``max_timestep_factor * (gates + 1)``.  Over timesteps that complete
no gate the next mapping is a pure function of the current one, so a
repeated mapping inside such a stretch proves the budget will be
reached; the scheduler then raises the budget's exact error at once
instead of running the remaining timesteps.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.circuits.circuit import Circuit
from repro.circuits.dag import CircuitDag, Frontier
from repro.core.config import CompilerConfig
from repro.core.errors import DisconnectedTopologyError, SchedulingStalledError
from repro.core.result import ScheduledOp
from repro.core.routing import propose_swap
from repro.core.weights import frontier_weights
from repro.hardware.restriction import RestrictionModel, Zone
from repro.hardware.topology import Topology


def schedule_circuit(
    circuit: Circuit,
    topology: Topology,
    config: CompilerConfig,
    initial_mapping: Dict[int, int],
    dag: Optional[CircuitDag] = None,
) -> Tuple[List[List[ScheduledOp]], Dict[int, int]]:
    """Route and schedule ``circuit`` starting from ``initial_mapping``.

    Returns ``(schedule, final_mapping)`` where the schedule is a list of
    timesteps, each a list of :class:`ScheduledOp`.  Callers that already
    built a :class:`CircuitDag` for ``circuit`` (the compile pipeline
    does, for placement weights) may pass it to avoid a rebuild.
    """
    if dag is None:
        dag = CircuitDag(circuit)
    frontier = Frontier(dag)
    restriction = config.restriction_model()
    grid = topology.grid

    phi: Dict[int, int] = dict(initial_mapping)
    inverse_phi: Dict[int, int] = {site: q for q, site in phi.items()}
    if len(inverse_phi) != len(phi):
        raise ValueError("initial mapping is not injective")

    schedule: List[List[ScheduledOp]] = []
    max_timesteps = config.max_timestep_factor * (len(circuit) + 1)
    #: Per gate index: the gate, its operands, and whether it needs the
    #: interaction-distance check (two or more operands).
    gate_rows = [(gate, gate.qubits, gate.arity >= 2) for gate in dag.circuit]
    # Both memos below are pure functions of the operand sites while this
    # call runs (restriction, grid and topology are fixed), and the same
    # few site tuples recur timestep after timestep.
    #: sites tuple -> Zone.
    zone_cache: Dict[Tuple[int, ...], Zone] = {}
    #: sites tuple -> topology.can_interact(sites).
    interacts: Dict[Tuple[int, ...], bool] = {}
    track_zones = not restriction.disabled
    site_of = phi.__getitem__

    # The lookahead weights are pure functions of the set of completed
    # gates, so they are computed lazily (only when a SWAP must actually
    # be scored) and reused across consecutive swap-only timesteps.
    cached_weights = None
    cached_num_done = -1

    def current_weights():
        nonlocal cached_weights, cached_num_done
        if cached_num_done != frontier.num_done:
            cached_weights = frontier_weights(
                frontier, config.lookahead_layers, config.lookahead_decay
            )
            cached_num_done = frontier.num_done
        return cached_weights

    def stalled() -> SchedulingStalledError:
        return SchedulingStalledError(
            f"no progress after {max_timesteps} timesteps "
            f"({frontier.num_done}/{len(dag)} gates scheduled)"
        )

    # Livelock detection (Brent): within a stretch of timesteps that
    # complete no gate, the frontier, the lookahead weights and the
    # topology are fixed and routing is deterministic, so each timestep's
    # ops and next mapping depend on ``phi`` alone.  A mapping seen
    # earlier in the stretch therefore repeats forever and the budget
    # below must trip.  States are compared exactly (``_apply_swap`` only
    # reassigns existing keys, so ``phi``'s key order is stable); one
    # checkpoint, moved at power-of-two stretch lengths, keeps memory O(1).
    checkpoint: Optional[Tuple[int, ...]] = None
    stretch = 0

    while not frontier.all_done():
        if len(schedule) >= max_timesteps:
            raise stalled()
        timestep_index = len(schedule)
        ops: List[ScheduledOp] = []
        zones: List[Zone] = []
        busy: Set[int] = set()
        completed: List[int] = []
        pending_swaps: List[Tuple[int, int]] = []

        ready = sorted(frontier.ready)
        blocked_far: List[int] = []

        # Phase 1: execute everything already in range.
        for idx in ready:
            gate, qubits, multi = gate_rows[idx]
            sites = tuple(map(site_of, qubits))
            if not busy.isdisjoint(sites):
                continue
            if multi:
                in_range = interacts.get(sites)
                if in_range is None:
                    in_range = interacts[sites] = topology.can_interact(sites)
                if not in_range:
                    blocked_far.append(idx)
                    continue
            if track_zones:
                zone = _zone_of(sites, restriction, grid, zone_cache)
                if any(map(zone.intersects, zones)):
                    continue
                zones.append(zone)
            ops.append(ScheduledOp(gate, sites, timestep_index, source_index=idx))
            busy.update(sites)
            completed.append(idx)

        # Phase 2: one routing SWAP per still-blocked gate, if it fits.
        for idx in blocked_far:
            gate, qubits, _ = gate_rows[idx]
            if not busy.isdisjoint(map(site_of, qubits)):
                continue
            proposal = propose_swap(
                qubits, phi, inverse_phi, topology, current_weights()
            )
            if proposal is None:
                if not ops and not pending_swaps:
                    raise DisconnectedTopologyError(
                        f"cannot route gate {gate} — interaction graph "
                        "is disconnected"
                    )
                continue
            swap_sites = proposal.sites
            if not busy.isdisjoint(swap_sites):
                continue
            if track_zones:
                zone = _zone_of(swap_sites, restriction, grid, zone_cache)
                if any(map(zone.intersects, zones)):
                    continue
                zones.append(zone)
            ops.append(
                ScheduledOp(None, swap_sites, timestep_index, source_index=None)
            )
            busy.update(swap_sites)
            pending_swaps.append(swap_sites)

        if not ops:
            raise SchedulingStalledError(
                "timestep committed no operations; "
                f"{len(blocked_far)} gates blocked"
            )

        # Commit: mark gates done, then apply SWAP permutations.
        for idx in completed:
            frontier.complete(idx)
        for site_a, site_b in pending_swaps:
            _apply_swap(phi, inverse_phi, site_a, site_b)
        schedule.append(ops)

        if completed:
            checkpoint = None
            stretch = 0
            continue
        state = tuple(phi.values())
        if state == checkpoint:
            raise stalled()
        stretch += 1
        if stretch & (stretch - 1) == 0:
            checkpoint = state

    return schedule, phi


def _zone_of(
    sites: Tuple[int, ...],
    restriction: RestrictionModel,
    grid,
    cache: Dict[Tuple[int, ...], Zone],
) -> Zone:
    """The restriction zone of a gate at ``sites``, memoised in ``cache``.

    Shared-site conflicts are checked by the caller via the busy set; the
    zone is only for the intersection test against this timestep's.
    """
    zone = cache.get(sites)
    if zone is None:
        zone = cache[sites] = _build_zone(sites, restriction, grid)
    return zone


def _build_zone(sites: Tuple[int, ...], restriction: RestrictionModel, grid) -> Zone:
    positions_list = grid.positions_list()
    n = len(sites)
    if n == 1:
        span = 0.0
    elif n == 2:
        span = grid.distance_rows()[sites[0]][sites[1]]
    else:
        rows = grid.distance_rows()
        span = 0.0
        for i in range(n):
            row = rows[sites[i]]
            for j in range(i + 1, n):
                dist = row[sites[j]]
                if dist > span:
                    span = dist
    return restriction.zone_for_span(
        [positions_list[s] for s in sites], span
    )


def _apply_swap(
    phi: Dict[int, int],
    inverse_phi: Dict[int, int],
    site_a: int,
    site_b: int,
) -> None:
    """Exchange the (possibly absent) program qubits at two sites."""
    qubit_a: Optional[int] = inverse_phi.pop(site_a, None)
    qubit_b: Optional[int] = inverse_phi.pop(site_b, None)
    if qubit_a is not None:
        phi[qubit_a] = site_b
        inverse_phi[site_b] = qubit_a
    if qubit_b is not None:
        phi[qubit_b] = site_a
        inverse_phi[site_a] = qubit_b
