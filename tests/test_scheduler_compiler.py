"""Integration tests for the scheduler and the top-level compiler."""

import random
from typing import Dict, List, Optional, Set, Tuple

import pytest

import repro.core.scheduler as scheduler
from repro.circuits import Circuit
from repro.circuits.dag import CircuitDag, Frontier
from repro.circuits.decompose import decompose_circuit
from repro.circuits.gates import ccx, cx, h, x
from repro.core import (
    CompilationError,
    CompilerConfig,
    check_compiled,
    compile_circuit,
    max_native_arity_for_distance,
)
from repro.core.errors import DisconnectedTopologyError, SchedulingStalledError
from repro.core.mapping import initial_mapping, placement_order
from repro.core.result import ScheduledOp
from repro.core.routing import propose_swap
from repro.core.scheduler import _apply_swap, _zone_of
from repro.core.weights import frontier_weights, initial_weights
from repro.hardware import Grid, Topology
from repro.hardware.restriction import Zone
from repro.workloads import bernstein_vazirani, build_circuit, cuccaro_adder


def compile_on(circuit, side, mid, **config_kwargs):
    topo = Topology.square(side, mid)
    config = CompilerConfig(max_interaction_distance=mid, **config_kwargs)
    return compile_circuit(circuit, topo, config)


class TestScheduleInvariants:
    def test_all_source_gates_scheduled_once(self):
        program = compile_on(bernstein_vazirani(6), 3, 1.0,
                             restriction_radius="none", native_max_arity=2)
        source_indices = [op.source_index for op in program.ops
                          if not op.is_swap]
        assert sorted(source_indices) == list(range(len(program.source)))

    def test_ops_within_interaction_distance(self):
        program = compile_on(build_circuit("qaoa", 9), 3, 2.0)
        topo = Topology.square(3, 2.0)
        for op in program.ops:
            for i in range(len(op.sites)):
                for j in range(i + 1, len(op.sites)):
                    assert topo.distance(op.sites[i], op.sites[j]) <= 2.0 + 1e-9

    def test_no_site_reuse_within_timestep(self):
        program = compile_on(build_circuit("cnu", 8), 3, 2.0)
        for timestep in program.schedule:
            seen = set()
            for op in timestep:
                assert not (set(op.sites) & seen)
                seen.update(op.sites)

    def test_zones_disjoint_within_timestep(self):
        program = compile_on(build_circuit("qft-adder", 8), 3, 2.0)
        model = program.config.restriction_model()
        grid = Grid(3, 3)
        for timestep in program.schedule:
            for i in range(len(timestep)):
                for j in range(i + 1, len(timestep)):
                    a = [grid.position(s) for s in timestep[i].sites]
                    b = [grid.position(s) for s in timestep[j].sites]
                    assert not model.conflict(a, b)

    def test_final_layout_consistent_with_swaps(self):
        program = compile_on(bernstein_vazirani(6), 3, 1.0,
                             restriction_radius="none", native_max_arity=2)
        # Replay the swaps over the initial layout.
        site_of = dict(program.initial_layout)
        inverse = {s: q for q, s in site_of.items()}
        for op in program.ops:
            if not op.is_swap:
                continue
            a, b = op.sites
            qa, qb = inverse.pop(a, None), inverse.pop(b, None)
            if qa is not None:
                site_of[qa] = b
                inverse[b] = qa
            if qb is not None:
                site_of[qb] = a
                inverse[a] = qb
        assert site_of == program.final_layout


class TestSemanticEquivalence:
    @pytest.mark.parametrize("mid", [1.0, 2.0])
    def test_bv_equivalent(self, mid):
        config = dict(native_max_arity=2)
        if mid == 1.0:
            config["restriction_radius"] = "none"
        program = compile_on(bernstein_vazirani(6), 3, mid, **config)
        assert check_compiled(program)

    def test_cuccaro_native_equivalent(self):
        program = compile_on(cuccaro_adder(2), 3, 2.0)
        assert check_compiled(program)

    def test_cnu_equivalent(self):
        program = compile_on(build_circuit("cnu", 8), 3, 2.0)
        assert check_compiled(program)

    def test_qaoa_equivalent(self):
        program = compile_on(build_circuit("qaoa", 6), 3, 2.0)
        assert check_compiled(program)

    def test_qft_adder_equivalent(self):
        program = compile_on(build_circuit("qft-adder", 6), 3, 2.0)
        assert check_compiled(program)

    def test_equivalence_on_rectangular_grid(self):
        topo = Topology(Grid(3, 4), 2.0)
        program = compile_circuit(
            bernstein_vazirani(7), topo,
            CompilerConfig(max_interaction_distance=2.0),
        )
        assert check_compiled(program)


class TestCompilerPolicies:
    def test_native_arity_by_distance(self):
        assert max_native_arity_for_distance(1.0) == 2
        assert max_native_arity_for_distance(1.5) == 4
        assert max_native_arity_for_distance(3.0) == 8

    def test_toffoli_decomposed_at_mid_1(self):
        program = compile_on(Circuit(3, [ccx(0, 1, 2)]), 3, 1.0,
                             native_max_arity=3)
        assert all(len(op.sites) <= 2 for op in program.ops)

    def test_toffoli_native_at_mid_2(self):
        program = compile_on(Circuit(3, [ccx(0, 1, 2)]), 3, 2.0,
                             native_max_arity=3)
        arities = [len(op.sites) for op in program.ops if not op.is_swap]
        assert 3 in arities

    def test_config_mid_follows_topology(self):
        topo = Topology.square(3, 2.0)
        program = compile_circuit(
            Circuit(2, [cx(0, 1)]), topo,
            CompilerConfig(max_interaction_distance=5.0),
        )
        assert program.config.max_interaction_distance == 2.0

    def test_too_large_program_rejected(self):
        with pytest.raises(CompilationError):
            compile_on(bernstein_vazirani(20), 3, 1.0)

    def test_disconnected_topology_raises(self):
        topo = Topology.square(3, 1.0)
        for site in (1, 4, 7):
            topo.remove_atom(site)
        circuit = Circuit(4, [cx(0, 1), cx(2, 3), cx(0, 3), cx(1, 2)])
        with pytest.raises(CompilationError):
            compile_circuit(circuit, topo,
                            CompilerConfig(max_interaction_distance=1.0))

    def test_compile_on_holey_but_connected(self):
        topo = Topology.square(4, 2.0)
        for site in (5, 10):
            topo.remove_atom(site)
        program = compile_circuit(
            bernstein_vazirani(8), topo,
            CompilerConfig(max_interaction_distance=2.0),
        )
        lost = topo.lost_sites
        for op in program.ops:
            assert not (set(op.sites) & lost)

    @pytest.mark.parametrize("name", ["bv", "cnu", "cuccaro"])
    def test_family_compiles_at_mid_3(self, name):
        assert compile_on(build_circuit(name, 20), 5, 3.0).depth() > 0


class TestMetricsTrends:
    def test_gate_count_decreases_with_mid(self):
        circuit = bernstein_vazirani(20)
        counts = []
        for mid in (1.0, 2.0, 3.0):
            program = compile_on(circuit, 5, mid, native_max_arity=2)
            counts.append(program.gate_count())
        assert counts[0] >= counts[1] >= counts[2]

    def test_full_connectivity_needs_no_swaps(self):
        circuit = bernstein_vazirani(16)
        program = compile_on(circuit, 4, 4.25, native_max_arity=2)
        assert program.swap_count == 0
        assert program.gate_count() == len(circuit)

    def test_gate_count_identity(self):
        program = compile_on(bernstein_vazirani(10), 4, 1.0,
                             restriction_radius="none", native_max_arity=2)
        assert program.gate_count() == (
            program.op_count + 2 * program.swap_count
        )

    def test_counts_by_arity_includes_swaps(self):
        program = compile_on(bernstein_vazirani(10), 4, 1.0,
                             restriction_radius="none", native_max_arity=2)
        counts = program.counts_by_arity()
        source_2q = sum(1 for g in program.source if g.arity == 2)
        assert counts[2] == source_2q + 3 * program.swap_count

    def test_depth_at_least_critical_path(self):
        program = compile_on(build_circuit("cuccaro", 8), 3, 2.0)
        assert program.depth() >= program.source.depth()

    def test_duration_positive_and_scales(self):
        from repro.hardware import NoiseModel
        noise = NoiseModel.neutral_atom()
        small = compile_on(bernstein_vazirani(5), 3, 2.0)
        large = compile_on(bernstein_vazirani(9), 3, 2.0)
        assert 0 < small.duration(noise) < large.duration(noise)

    def test_zone_serialization_increases_depth(self):
        circuit = build_circuit("qft-adder", 16)
        zoned = compile_on(circuit, 5, 4.0, restriction_radius="half",
                           native_max_arity=2)
        ideal = compile_on(circuit, 5, 4.0, restriction_radius="none",
                           native_max_arity=2)
        assert zoned.depth() >= ideal.depth()

    def test_used_and_measured_sites(self):
        program = compile_on(bernstein_vazirani(6), 3, 2.0)
        used = program.used_sites()
        assert set(program.initial_layout.values()) <= used
        assert program.measured_sites() == set(program.final_layout.values())

    def test_summary_keys(self):
        program = compile_on(bernstein_vazirani(5), 3, 2.0)
        summary = program.summary()
        assert {"qubits", "mid", "ops", "gates", "swaps", "depth",
                "timesteps"} <= set(summary)


# -- livelock detection: differential against the budget-only loop ----------------


#: The reference loop's zone test, as the scheduler had it before it
#: looked each zone up once per gate.
def _zone_fits(
    sites: Tuple[int, ...],
    committed: List[Zone],
    restriction,
    grid,
    cache: Optional[Dict[Tuple[int, ...], Zone]] = None,
) -> bool:
    """Whether a gate at ``sites`` is zone-compatible with this timestep.

    Shared-site conflicts are checked by the caller via the busy set, so
    this is purely the zone-intersection test (always true when zones are
    disabled).
    """
    if restriction.disabled or not committed:
        return True
    zone = _zone_of(sites, restriction, grid, cache)
    return not any(zone.intersects(other) for other in committed)


def reference_schedule_circuit(
    circuit: Circuit,
    topology: Topology,
    config: CompilerConfig,
    initial_mapping: Dict[int, int],
    dag: Optional[CircuitDag] = None,
) -> Tuple[List[List[ScheduledOp]], Dict[int, int]]:
    """The budget-only scheduler loop, kept verbatim from before livelock
    detection: it raises only when ``len(schedule)`` reaches the budget."""
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
    dag_gate = dag.circuit.__getitem__
    #: sites tuple -> Zone.  Zones are immutable functions of the operand
    #: sites (restriction and grid are fixed per schedule), and the same
    #: few site tuples recur timestep after timestep.
    zone_cache: Dict[Tuple[int, ...], Zone] = {}

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

    while not frontier.all_done():
        if len(schedule) >= max_timesteps:
            raise SchedulingStalledError(
                f"no progress after {len(schedule)} timesteps "
                f"({frontier.num_done}/{len(dag)} gates scheduled)"
            )
        timestep_index = len(schedule)
        ops: List[ScheduledOp] = []
        zones: List[Zone] = []
        busy: Set[int] = set()
        completed: List[int] = []
        pending_swaps: List[Tuple[int, int]] = []

        ready = sorted(frontier.ready)
        blocked_far: List[int] = []
        track_zones = not restriction.disabled

        site_of = phi.__getitem__

        # Phase 1: execute everything already in range.
        for idx in ready:
            gate = dag_gate(idx)
            sites = tuple(map(site_of, gate.qubits))
            if not busy.isdisjoint(sites):
                continue
            if gate.arity >= 2 and not topology.can_interact(sites):
                blocked_far.append(idx)
                continue
            if not _zone_fits(sites, zones, restriction, grid, zone_cache):
                continue
            ops.append(ScheduledOp(gate, sites, timestep_index, source_index=idx))
            if track_zones:
                zones.append(_zone_of(sites, restriction, grid, zone_cache))
            busy.update(sites)
            completed.append(idx)

        # Phase 2: one routing SWAP per still-blocked gate, if it fits.
        for idx in blocked_far:
            gate = dag_gate(idx)
            if not busy.isdisjoint(map(site_of, gate.qubits)):
                continue
            proposal = propose_swap(
                gate.qubits, phi, inverse_phi, topology, current_weights()
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
            if not _zone_fits(swap_sites, zones, restriction, grid, zone_cache):
                continue
            ops.append(
                ScheduledOp(None, swap_sites, timestep_index, source_index=None)
            )
            if track_zones:
                zones.append(_zone_of(swap_sites, restriction, grid, zone_cache))
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

    return schedule, phi


def holey_inputs(family, size, mid, holes):
    """What ``compile_circuit`` hands the scheduler on a 10x10 grid with
    ``holes`` lost: the lowered circuit, topology, config and placement."""
    topology = Topology.square(10, mid)
    for site in holes:
        topology.remove_atom(site)
    config = CompilerConfig(max_interaction_distance=mid)
    lowered = decompose_circuit(
        build_circuit(family, size), keep_swaps=True,
        max_arity=min(config.native_max_arity,
                      max_native_arity_for_distance(mid)),
    )
    dag = CircuitDag(lowered)
    weights = initial_weights(dag, config.initial_mapping_layers,
                              config.lookahead_decay)
    layout = initial_mapping(placement_order(lowered.num_qubits, weights),
                             topology, weights)
    return lowered, topology, config, layout


def seeded_case(seed):
    rng = random.Random(seed)
    mid = rng.choice([1.0, 2.0, 3.0])
    family = rng.choice(["cnu", "cuccaro", "qft-adder"])
    size = rng.choice([10, 15, 20])
    holes = rng.sample(range(100), rng.randint(5, 40))
    return holey_inputs(family, size, mid, holes)


def outcome(schedule_fn, circuit, topology, config, layout):
    try:
        return schedule_fn(circuit, topology, config, dict(layout))
    except CompilationError as error:
        return type(error), str(error)


#: cnu at 20 qubits, MID 2, on a 10x10 grid with these 37 atoms lost: the
#: BFS fallback swaps two operands of one Toffoli back and forth, and the
#: budget-only loop runs all 200 x (19 + 1) timesteps before raising.
LIVELOCK_HOLES = (0, 1, 4, 8, 11, 15, 16, 17, 18, 20, 21, 22, 23, 29, 30,
                  35, 44, 46, 47, 48, 49, 50, 52, 53, 56, 61, 62, 63, 68,
                  69, 80, 87, 90, 94, 96, 97, 99)


class TestLivelockDetection:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_budget_only_reference(self, seed):
        inputs = seeded_case(seed)
        assert outcome(scheduler.schedule_circuit, *inputs) == outcome(
            reference_schedule_circuit, *inputs)

    def test_seeded_cases_cover_every_outcome(self):
        kinds = set()
        for seed in range(40):
            result = outcome(scheduler.schedule_circuit, *seeded_case(seed))
            kinds.add(result[0] if isinstance(result[0], type) else "ok")
        assert kinds == {"ok", SchedulingStalledError,
                         DisconnectedTopologyError}

    def test_livelock_raises_budget_error_early(self, monkeypatch):
        circuit, topology, config, layout = holey_inputs(
            "cnu", 20, 2.0, LIVELOCK_HOLES)
        calls = []

        def counting_propose_swap(*args):
            calls.append(args[0])
            return propose_swap(*args)

        monkeypatch.setattr(scheduler, "propose_swap", counting_propose_swap)
        with pytest.raises(SchedulingStalledError) as exc_info:
            scheduler.schedule_circuit(circuit, topology, config, layout)
        assert str(exc_info.value) == (
            "no progress after 4000 timesteps (8/19 gates scheduled)"
        )
        assert 0 < len(calls) < 100
