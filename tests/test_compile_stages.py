"""Differential referee for the two-stage compile.

``compile_circuit`` runs as a lowering stage (``lower_circuit``: circuit
and config only) and a topology stage (placement, routing, scheduling on
the current atoms), and Always Recompile lowers its circuit once and
reruns only the topology stage on each loss.  The lookahead weights keep
one per-qubit map, and ``frontier_weights`` lays out the remaining layers
and adds their weights in one walk that counts down only the successors
it visits (``reference_remaining_layers`` lays them out first, with its
own counts).  ``propose_swap`` scores candidates from per-operand
partner rows; ``reference_propose_swap`` and ``reference_score_swap``
score each candidate from the weight map, one call per candidate.

The references below are verbatim copies of the one-stage code, except
that ``reference_compile_circuit`` passes the placement order to
``initial_mapping`` (which no longer computes it) and builds its weights
with the reference classes; the scheduler's ``frontier_weights`` is
swapped for the reference while a reference program compiles.  Every
program, layout and tolerance count must come out the same.
"""

import math
import random
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

import pytest

from repro.api.session import Session, install_default
from repro.circuits.circuit import Circuit
from repro.circuits.dag import CircuitDag, Frontier
from repro.circuits.decompose import decompose_circuit
from repro.circuits.gates import ccx, cx, h
from repro.core import compiler, routing, scheduler, weights
from repro.core.compiler import (compile_circuit, lower_circuit,
                                 max_native_arity_for_distance)
from repro.core.config import CompilerConfig
from repro.core.errors import CompilationError, SchedulingStalledError
from repro.core.mapping import initial_mapping, placement_order
from repro.core.result import CompiledProgram
from repro.core.routing import SwapProposal, propose_swap
from repro.core.weights import InteractionWeights, frontier_weights
from repro.exec.cache import CompileCache, cached_compile
from repro.exec.keys import compile_key
from repro.hardware.topology import Topology
from repro.loss.strategies import AlwaysRecompile, LossOutcome
from repro.loss.tolerance import max_loss_tolerance
from repro.workloads.registry import build_circuit
from test_routing_digests import STALLED_HOLES

FAMILIES = ("bv", "cnu", "cuccaro", "qft-adder", "qaoa")
COMPILE_MIDS = (1.0, 2.0, 3.0, 5.0)
HOLE_COUNTS = (0, 5, 20, 40)
GRID_SIDE = 10
PROGRAM_SIZE = 20


@pytest.fixture(autouse=True)
def fresh_default_session():
    saved = install_default(None)
    yield
    install_default(saved)


# -- the references ---------------------------------------------------------

Pair = Tuple[int, int]


class ReferenceInteractionWeights:
    """A symmetric sparse weight map over program-qubit pairs."""

    def __init__(self) -> None:
        self._weights: Dict[Pair, float] = defaultdict(float)
        self._per_qubit: Dict[int, Dict[int, float]] = defaultdict(dict)

    @staticmethod
    def _key(u: int, v: int) -> Pair:
        return (u, v) if u <= v else (v, u)

    def add(self, u: int, v: int, weight: float) -> None:
        self._weights[self._key(u, v)] += weight
        self._per_qubit[u][v] = self._per_qubit[u].get(v, 0.0) + weight
        self._per_qubit[v][u] = self._per_qubit[v].get(u, 0.0) + weight

    def weight(self, u: int, v: int) -> float:
        return self._weights.get(self._key(u, v), 0.0)

    def partners(self, u: int) -> Dict[int, float]:
        """All qubits with nonzero weight to ``u`` and those weights."""
        return self._per_qubit.get(u, {})

    def total_weight(self, u: int) -> float:
        return sum(self._per_qubit.get(u, {}).values())

    def heaviest_pair(self) -> Pair:
        if not self._weights:
            raise ValueError("no interactions recorded")
        # Deterministic tie-break on the pair itself.
        return max(self._weights, key=lambda p: (self._weights[p], (-p[0], -p[1])))

    def pairs(self) -> List[Pair]:
        return list(self._weights)

    def __len__(self) -> int:
        return len(self._weights)


def reference_weights_from_layers(
    layers: List[List[int]],
    dag: CircuitDag,
    decay: float = 1.0,
) -> ReferenceInteractionWeights:
    weights = ReferenceInteractionWeights()
    pair_weights = weights._weights
    per_qubit = weights._per_qubit
    for offset, layer in enumerate(layers):
        factor = math.exp(-decay * offset)
        for gate_idx in layer:
            for u, v in dag.weight_pairs()[gate_idx]:
                key = (u, v) if u <= v else (v, u)
                pair_weights[key] += factor
                pu = per_qubit[u]
                pu[v] = pu.get(v, 0.0) + factor
                pv = per_qubit[v]
                pv[u] = pv.get(u, 0.0) + factor
    return weights


def reference_remaining_layers(self: Frontier,
                               max_layers: int) -> List[List[int]]:
    remaining_preds = list(self._remaining_preds)
    layers: List[List[int]] = []
    current = sorted(self._ready)
    produced: Set[int] = set(current)
    while current and len(layers) < max_layers:
        layers.append(current)
        next_layer: List[int] = []
        for idx in current:
            for succ in self.dag.successors[idx]:
                if succ in produced or self._done[succ]:
                    continue
                remaining_preds[succ] -= 1
                if remaining_preds[succ] == 0:
                    next_layer.append(succ)
                    produced.add(succ)
        current = next_layer
    return layers


def reference_initial_weights(dag, max_layers=40, decay=1.0):
    layers = dag.layers()[:max_layers]
    return reference_weights_from_layers(layers, dag, decay=decay)


def reference_frontier_weights(frontier, max_layers=10, decay=1.0):
    layers = reference_remaining_layers(frontier, max_layers)
    return reference_weights_from_layers(layers, frontier.dag, decay=decay)


def reference_compile_circuit(
    circuit: Circuit,
    topology: Topology,
    config: Optional[CompilerConfig] = None,
) -> CompiledProgram:
    if config is None:
        config = CompilerConfig()
    if abs(config.max_interaction_distance - topology.max_interaction_distance) > 1e-9:
        config = config.with_mid(topology.max_interaction_distance)

    start = time.perf_counter()

    lowering_arity = min(
        config.native_max_arity,
        max_native_arity_for_distance(config.max_interaction_distance),
    )
    lowered = decompose_circuit(circuit, keep_swaps=True, max_arity=lowering_arity)

    if lowered.num_qubits > topology.num_active:
        raise CompilationError(
            f"program needs {lowered.num_qubits} qubits "
            f"(incl. decomposition ancillas) but the device has "
            f"{topology.num_active} active atoms"
        )

    dag = CircuitDag(lowered)
    weights = reference_initial_weights(
        dag, config.initial_mapping_layers, config.lookahead_decay
    )
    layout = initial_mapping(placement_order(lowered.num_qubits, weights),
                             topology, weights)

    schedule, final_layout = scheduler.schedule_circuit(
        lowered, topology, config, layout, dag=dag
    )

    elapsed = time.perf_counter() - start
    return CompiledProgram(
        source=lowered,
        config=config,
        grid_shape=(topology.grid.rows, topology.grid.cols),
        initial_layout=layout,
        final_layout=final_layout,
        schedule=schedule,
        compile_seconds=elapsed,
    )


class ReferenceRecompile(AlwaysRecompile):
    """Recompiles from ``self.source`` on every interfering loss."""

    def on_loss(self, site: int) -> LossOutcome:
        if site not in self.program.used_sites():
            return LossOutcome.spare_loss()
        try:
            recompiled = cached_compile(
                self.source, self.topology, self.config, persist=False
            )
        except CompilationError:
            return LossOutcome.needs_reload()
        previous_swaps = self.program.swap_count
        self.program = recompiled
        self.added_swaps = 0
        return LossOutcome(
            coped=True,
            interfering=True,
            swaps_added=max(0, recompiled.swap_count - previous_swaps),
            recompile_seconds=recompiled.compile_seconds,
        )


def reference_propose_swap(
    gate_qubits: Sequence[int],
    phi: Dict[int, int],
    inverse_phi: Dict[int, int],
    topology: Topology,
    weights: InteractionWeights,
) -> Optional[SwapProposal]:
    """Best single SWAP bringing one operand of the gate closer.

    Evaluates every operand ``u`` against every active neighbor ``h`` of
    its site that strictly reduces ``u``'s maximum distance to the gate's
    other operands, scoring each by the paper's function.  Falls back to
    one hop along a BFS path when the Euclidean-greedy candidate set is
    empty (possible on topologies with holes).  Returns ``None`` only when
    even BFS finds no way to bring the operands together.
    """
    grid = topology.grid
    rows = grid.distance_rows()
    ntable = grid.neighbor_table(topology.max_interaction_distance)
    lost = topology.lost_view
    lookup_displaced = inverse_phi.get
    # Unrolled partner handling for the 2- and 3-operand gates the native
    # set produces (a genexpr max() per candidate dominates otherwise);
    # gates with repeated operands fall back to the generic path.
    arity = len(gate_qubits)
    if arity == 2:
        if gate_qubits[0] == gate_qubits[1]:
            arity = -1
    elif arity == 3:
        qa, qb, qc = gate_qubits
        if qa == qb or qa == qc or qb == qc:
            arity = -1
    else:
        arity = -1
    best_a = best_b = -1
    best_score = 0.0
    have_best = False
    for u in gate_qubits:
        site_u = phi[u]
        row_u = rows[site_u]
        p0 = p1 = -1
        partner_sites: Tuple[int, ...] = ()
        if arity == 2:
            p0 = phi[gate_qubits[1] if u == gate_qubits[0] else gate_qubits[0]]
            span_limit = row_u[p0] - 1e-9
        elif arity == 3:
            qa, qb, qc = gate_qubits
            if u == qa:
                p0, p1 = phi[qb], phi[qc]
            elif u == qb:
                p0, p1 = phi[qa], phi[qc]
            else:
                p0, p1 = phi[qa], phi[qb]
            d0, d1 = row_u[p0], row_u[p1]
            span_limit = (d0 if d0 >= d1 else d1) - 1e-9
        else:
            partner_sites = tuple(phi[v] for v in gate_qubits if v != u)
            span_limit = max(row_u[p] for p in partner_sites) - 1e-9
        for h in ntable[site_u]:
            if h in lost:
                continue
            # Geometry first: the strict-progress span test eliminates
            # nearly every candidate, so it runs before the (costlier)
            # same-gate-operand lookup.  Both checks are side-effect-free
            # filters, so the surviving candidate set is order-independent.
            row_h = rows[h]
            if arity == 2:
                if row_h[p0] >= span_limit:
                    continue
            elif arity == 3:
                d0, d1 = row_h[p0], row_h[p1]
                if (d0 if d0 >= d1 else d1) >= span_limit:
                    continue
            elif max(row_h[p] for p in partner_sites) >= span_limit:
                continue
            if lookup_displaced(h) in gate_qubits:
                # Swapping two operands of the same gate permutes them but
                # leaves the operand site set (and the span) unchanged.
                continue
            score = reference_score_swap(u, site_u, h, phi, inverse_phi, weights, rows)
            if (not have_best or score > best_score or (
                score == best_score and (site_u, h) < (best_a, best_b)
            )):
                best_a, best_b, best_score = site_u, h, score
                have_best = True
    if have_best:
        return SwapProposal(best_a, best_b, best_score)
    return routing._bfs_fallback(gate_qubits, phi, topology)


def reference_score_swap(
    u: int,
    site_u: int,
    target_site: int,
    phi: Dict[int, int],
    inverse_phi: Dict[int, int],
    weights: InteractionWeights,
    rows: List[List[float]],
) -> float:
    """The paper's routing score for moving ``u`` from its site to
    ``target_site`` (displacing whatever sits there)."""
    score = 0.0
    row_u = rows[site_u]
    row_t = rows[target_site]
    displaced = inverse_phi.get(target_site)
    for v, weight in weights.partners(u).items():
        if v == u or v not in phi:
            continue
        site_v = phi[v]
        if v == displaced:
            # The displaced qubit is the partner itself; after the SWAP
            # their distance is unchanged (they trade places), so skip.
            continue
        score += (row_u[site_v] - row_t[site_v]) * weight
    if displaced is not None and displaced != u:
        for v, weight in weights.partners(displaced).items():
            if v == displaced or v not in phi or v == u:
                continue
            site_v = phi[v]
            # Displaced qubit moves from target_site to site_u; penalize
            # (negative contribution) if that takes it away from partners.
            score += (row_t[site_v] - row_u[site_v]) * weight
    return score


# -- helpers ----------------------------------------------------------------


def program_view(program: CompiledProgram):
    """Everything of a program but its measured compile time."""
    return (program.source.gates, program.config, program.grid_shape,
            program.initial_layout, program.final_layout, program.schedule,
            program.swap_count, program.depth())


def holey(mid: float, holes: int, seed: int) -> Topology:
    topology = Topology.square(GRID_SIDE, mid)
    for site in random.Random(seed).sample(range(GRID_SIDE ** 2), holes):
        topology.remove_atom(site)
    return topology


def outcome(compile_fn, *args):
    try:
        return program_view(compile_fn(*args))
    except CompilationError as error:
        return type(error), str(error)


# -- compile: one lowering, every hole pattern ------------------------------


@pytest.mark.parametrize("mid", COMPILE_MIDS)
@pytest.mark.parametrize("family", FAMILIES)
def test_one_lowering_compiles_like_the_reference(family, mid, monkeypatch):
    circuit = build_circuit(family, PROGRAM_SIZE)
    config = CompilerConfig(max_interaction_distance=mid)
    lowered = lower_circuit(circuit, config)
    for seed, holes in enumerate(HOLE_COUNTS):
        topology = holey(mid, holes, seed)
        actual = outcome(compile_circuit, lowered, topology, config)
        assert outcome(compile_circuit, circuit, topology, config) == actual
        with monkeypatch.context() as patch:
            patch.setattr(scheduler, "frontier_weights",
                          reference_frontier_weights)
            expected = outcome(reference_compile_circuit, circuit, topology,
                               config)
        assert actual == expected, (family, mid, holes)


# -- recompile trials: lowered once vs recompiled from the source ------------


@pytest.mark.parametrize("seed", (3, 17, 2024))
@pytest.mark.parametrize("mid", (2.0, 3.0, 4.0, 5.0))
@pytest.mark.parametrize("family", ("cnu", "cuccaro"))
def test_recompile_trials_match_the_reference(family, mid, seed):
    circuit = build_circuit(family, PROGRAM_SIZE)
    results = []
    for strategy in (AlwaysRecompile(), ReferenceRecompile()):
        tolerance = max_loss_tolerance(strategy, circuit, GRID_SIDE, mid,
                                       trials=2, rng=seed)
        results.append((tolerance, program_view(strategy.program)))
    assert results[0] == results[1]


# -- weights and frontier layers over random progressions --------------------

#: "walk" keeps the walk-or-follow policy; "follow" follows the drops on
#: every update, whatever the window.
POLICIES = {"walk": {}, "follow": {"SMALL_WINDOW": 0, "BATCH_SHARE": 0}}


def random_progression_circuit(seed: int) -> Circuit:
    rng = random.Random(seed)
    num_qubits = rng.randint(3, 9)
    gates = []
    for _ in range(rng.randint(10, 60)):
        arity = rng.choice((1, 2, 2, 3))
        qubits = rng.sample(range(num_qubits), arity)
        gates.append({1: h, 2: cx, 3: ccx}[arity](*qubits))
    return Circuit(num_qubits, gates)


def per_qubit_items(weights):
    """Every row with its keys in order, by qubit: no consumer of the
    weights reads the order of the rows themselves."""
    return sorted((u, list(partners.items()))
                  for u, partners in weights._per_qubit.items())


@pytest.mark.parametrize("seed", range(12))
def test_weights_and_layers_match_over_random_progressions(seed):
    check_random_progression(seed)


@pytest.mark.parametrize("seed", range(12))
def test_followed_weights_match_over_random_progressions(seed, monkeypatch):
    for name, value in POLICIES["follow"].items():
        monkeypatch.setattr(weights, name, value)
    check_random_progression(seed)


def check_random_progression(seed):
    """Complete random ready gates one at a time, comparing the weights
    with the walking reference for several windows after each."""
    rng = random.Random(seed)
    dag = CircuitDag(random_progression_circuit(seed))
    frontier = Frontier(dag)
    while True:
        for max_layers in (0, 1, 3, 1000):
            assert per_qubit_items(
                frontier_weights(frontier, max_layers, 0.7)) == \
                per_qubit_items(
                    reference_frontier_weights(frontier, max_layers, 0.7))
        actual = frontier_weights(frontier, 10, 0.7)
        expected = reference_frontier_weights(frontier, 10, 0.7)
        assert per_qubit_items(actual) == per_qubit_items(expected)
        assert len(actual) == len(expected)
        assert sorted(actual.pairs()) == sorted(expected.pairs())
        for u in range(dag.circuit.num_qubits):
            for v in range(dag.circuit.num_qubits):
                if u != v:
                    assert actual.weight(u, v) == expected.weight(u, v)
        if len(expected):
            assert actual.heaviest_pair() == expected.heaviest_pair()
        else:
            with pytest.raises(ValueError):
                actual.heaviest_pair()
        if frontier.all_done():
            break
        frontier.complete(rng.choice(sorted(frontier.ready)))


# -- weights at every rescoring inside real schedules -------------------------


def row_bits(weights):
    """Each row's keys in order, with every weight's exact bits."""
    return {u: [(v, w.hex()) for v, w in partners.items()]
            for u, partners in weights._per_qubit.items()}


def checked_compile(patch, circuit, topology, config):
    """Compile, checking every ``frontier_weights`` call against the
    walking reference.  Returns the compile's outcome and the number of
    calls made after some gate had completed."""
    returned = []

    def checked(frontier, max_layers, decay):
        actual = frontier_weights(frontier, max_layers, decay)
        expected = row_bits(
            reference_frontier_weights(frontier, max_layers, decay))
        assert row_bits(actual) == expected, (frontier.num_done, max_layers)
        returned.append((frontier.num_done, actual, expected))
        return actual

    patch.setattr(scheduler, "frontier_weights", checked)
    try:
        compile_circuit(circuit, topology, config)
        result = "ok"
    except CompilationError as error:
        result = type(error)
    # Later calls replace rows and never touch a returned map.
    for num_done, actual, expected in returned:
        assert row_bits(actual) == expected, num_done
    return result, sum(1 for num_done, _, _ in returned if num_done)


STEP_LAYERS = (1, 3, 10, 1000)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("holes", (0, 20))
@pytest.mark.parametrize("mid", (1.0, 2.0, 3.0, 5.0))
@pytest.mark.parametrize("family", FAMILIES)
def test_weights_match_the_walk_at_every_schedule_step(family, mid, holes,
                                                       policy, monkeypatch):
    circuit = build_circuit(family, PROGRAM_SIZE)
    with monkeypatch.context() as patch:
        for name, value in POLICIES[policy].items():
            patch.setattr(weights, name, value)
        for max_layers in STEP_LAYERS:
            config = CompilerConfig(max_interaction_distance=mid,
                                    lookahead_layers=max_layers)
            checked_compile(patch, circuit, holey(mid, holes, holes), config)


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_weights_match_the_walk_through_a_livelocked_recompile(policy,
                                                               monkeypatch):
    topology = Topology.square(GRID_SIDE, 2.0)
    for site in STALLED_HOLES:
        topology.remove_atom(site)
    with monkeypatch.context() as patch:
        for name, value in POLICIES[policy].items():
            patch.setattr(weights, name, value)
        result, rescored = checked_compile(
            patch, build_circuit("cnu", 20), topology,
            CompilerConfig(max_interaction_distance=2.0))
    assert result is SchedulingStalledError
    assert rescored > 0


# -- routing: one proposal per randomized state -------------------------------


def random_routing_state(rng: random.Random):
    """A proposal's inputs: a small grid with some atoms lost, qubits on
    part of the active sites, weights that also name unplaced qubits, and
    a gate that sometimes repeats an operand."""
    side = rng.randint(4, 7)
    topology = Topology.square(side, rng.choice((1.0, math.sqrt(2), 2.0,
                                                 3.0)))
    for site in rng.sample(range(side * side), rng.randint(0, side * side // 4)):
        topology.remove_atom(site)
    active = topology.active_sites()
    num_qubits = rng.randint(3, len(active))
    phi = dict(zip(rng.sample(range(num_qubits), num_qubits),
                   rng.sample(active, num_qubits)))
    inverse_phi = {site: q for q, site in phi.items()}
    weights = InteractionWeights()
    universe = num_qubits + 2
    for _ in range(rng.randint(0, 4 * universe)):
        u, v = rng.sample(range(universe), 2)
        weights.add(u, v, rng.choice((1.0, math.exp(-1.0), rng.random())))
    gate = rng.sample(range(num_qubits),
                      min(num_qubits, rng.choice((2, 2, 3, 3, 4))))
    if len(gate) > 2 and rng.random() < 0.25:
        gate[-1] = gate[0]
        rng.shuffle(gate)
    return tuple(gate), phi, inverse_phi, topology, weights


def test_proposals_match_the_reference_over_random_states(monkeypatch):
    seen: Set[str] = set()
    score_one = reference_score_swap

    def recording_score(u, site_u, target_site, phi, inverse_phi, weights,
                        rows):
        displaced = inverse_phi.get(target_site)
        if displaced is None:
            seen.add("empty target site")
        elif displaced in weights.partners(u):
            seen.add("displaced partner")
        if any(v not in phi for v in weights.partners(u)):
            seen.add("unplaced partner")
        return score_one(u, site_u, target_site, phi, inverse_phi, weights,
                         rows)

    monkeypatch.setitem(globals(), "reference_score_swap", recording_score)
    rng = random.Random(26)
    for _ in range(1500):
        state = random_routing_state(rng)
        gate, phi, inverse_phi, topology = state[:4]
        if len(set(gate)) < len(gate):
            seen.add("repeated operand")
        ntable = topology.grid.neighbor_table(
            topology.max_interaction_distance)
        if any(h in topology.lost_view for q in gate for h in ntable[phi[q]]):
            seen.add("lost neighbor")
        before = (dict(phi), dict(inverse_phi))
        expected = reference_propose_swap(*state)
        if expected is not None and expected.via_path_fallback:
            seen.add("fallback")
        assert propose_swap(*state) == expected, state
        assert (phi, inverse_phi) == before
    assert seen == {"empty target site", "displaced partner",
                    "unplaced partner", "repeated operand", "lost neighbor",
                    "fallback"}


# -- the contract of the new surface ----------------------------------------


def lowered_cnu(mid: float = 3.0):
    circuit = build_circuit("cnu", 12)
    config = CompilerConfig(max_interaction_distance=mid)
    return circuit, config, lower_circuit(circuit, config)


def test_lowered_circuit_keys_as_its_source():
    circuit, config, lowered = lowered_cnu()
    topology = holey(3.0, 7, 0)
    assert compile_key(lowered, topology, config) == compile_key(
        circuit, topology, config)


def test_lowered_circuit_at_another_mid_is_refused():
    _, config, lowered = lowered_cnu(3.0)
    topology = Topology.square(GRID_SIDE, 2.0)
    with pytest.raises(ValueError, match="MID"):
        compile_circuit(lowered, topology)
    with pytest.raises(ValueError, match="MID"):
        compile_circuit(lowered, topology, config)
    with pytest.raises(ValueError, match="MID"):
        with Session(cache=CompileCache()).activate():
            cached_compile(lowered, topology, config)


def test_lowered_circuit_under_another_config_is_refused():
    _, config, lowered = lowered_cnu(3.0)
    topology = Topology.square(GRID_SIDE, 3.0)
    other = CompilerConfig(max_interaction_distance=3.0,
                           lookahead_decay=config.lookahead_decay + 1.0)
    with pytest.raises(ValueError, match="another config"):
        compile_circuit(lowered, topology, other)


def test_compile_seconds_include_the_lowering():
    circuit, config, lowered = lowered_cnu()
    program = compile_circuit(lowered, holey(3.0, 5, 1), config)
    assert program.compile_seconds >= lowered.seconds > 0


def test_recompile_reports_at_least_the_lowering_seconds():
    strategy = AlwaysRecompile()
    topology = Topology.square(GRID_SIDE, 3.0)
    strategy.begin(build_circuit("cnu", PROGRAM_SIZE), topology,
                   CompilerConfig(max_interaction_distance=3.0))
    victim = next(iter(strategy.current_used_sites()))
    topology.remove_atom(victim)
    result = strategy.on_loss(victim)
    assert result.coped
    assert result.recompile_seconds == strategy.program.compile_seconds
    assert result.recompile_seconds >= strategy._lowered.seconds > 0


def lose_a_used_atom(strategy, topology):
    victim = next(iter(strategy.current_used_sites()))
    topology.remove_atom(victim)
    assert strategy.on_loss(victim).coped


def test_recompile_keeps_its_lowering_until_begin_changes_inputs():
    strategy = AlwaysRecompile()
    circuit = build_circuit("cnu", PROGRAM_SIZE)
    config = CompilerConfig(max_interaction_distance=3.0)
    topology = Topology.square(GRID_SIDE, 3.0)
    strategy.begin(circuit, topology, config)
    assert strategy._lowered is None
    lose_a_used_atom(strategy, topology)
    lowered = strategy._lowered
    assert lowered is not None and lowered.source is circuit
    topology.reload()
    strategy.after_reload()
    lose_a_used_atom(strategy, topology)
    assert strategy._lowered is lowered

    # Same inputs on a fresh array: the lowering is still good.
    topology = Topology.square(GRID_SIDE, 3.0)
    strategy.begin(circuit, topology, config)
    assert strategy._lowered is lowered

    other = build_circuit("cuccaro", PROGRAM_SIZE)
    strategy.begin(other, topology, config)
    assert strategy._lowered is None
    lose_a_used_atom(strategy, topology)
    assert strategy._lowered.source is other

    relaxed = CompilerConfig(max_interaction_distance=3.0,
                             lookahead_decay=config.lookahead_decay + 1.0)
    topology = Topology.square(GRID_SIDE, 3.0)
    strategy.begin(other, topology, relaxed)
    assert strategy._lowered is None


def test_recompile_trials_lower_once_per_strategy(monkeypatch):
    calls = []
    real = compiler.initial_weights
    monkeypatch.setattr(compiler, "initial_weights",
                        lambda *args: calls.append(1) or real(*args))
    strategy = AlwaysRecompile()
    result = max_loss_tolerance(strategy, build_circuit("cnu", PROGRAM_SIZE),
                                GRID_SIDE, 3.0, trials=3, rng=5)
    assert sum(result.losses_sustained) > 10
    # One for the pristine compile, one for the lowering every loss reuses.
    assert len(calls) == 2
