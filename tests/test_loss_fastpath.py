"""Differential referee for the loss-coping shot path.

The shot loop reuses what a loss or reload cannot change: the per-program
violation scan across reloads, static per-direction lines for the spare
search, the sampler's plan between lossless shots, and the occupancy
lookups.  Each reference below rebuilds that state every time, as the
code did before those reuses, and every strategy must produce the same
serialized ``RunResult`` and ``ToleranceResult`` and leave its generator
in the same state under both.

The reference methods are verbatim copies of the earlier code, except
that ``_reset_adaptation`` builds a :class:`ReferenceVirtualMap` from
:func:`reference_used_sites`.
"""

import json
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.api.serialize import encode
from repro.api.session import install_default
from repro.core.config import CompilerConfig
from repro.core.errors import CompilationError
from repro.core.result import ScheduledOp
from repro.exec.cache import cached_compile
from repro.hardware.loss import LossModel
from repro.hardware.topology import Topology
from repro.loss.runner import ShotRunner
from repro.loss.strategies import (STRATEGY_ORDER, AlwaysRecompile,
                                   CompileSmall, CompileSmallReroute,
                                   LossOutcome, MinorReroute, VirtualRemap,
                                   make_strategy)
from repro.loss.tolerance import max_loss_tolerance
from repro.loss.virtual_map import DIRECTIONS, RemapFailed, VirtualMap
from repro.workloads.registry import build_circuit

GRID_SIDE = 10
PROGRAM_SIZE = 20
SHOTS = 200
SEEDS = (3, 17, 2024)
MIDS = (2.0, 3.0, 4.0, 5.0)
#: Compile small compiles one notch down and needs a true MID of 3.
LOWEST_MID = {"compile small": 3.0, "c. small+reroute": 3.0}


@pytest.fixture(autouse=True)
def fresh_default_session():
    saved = install_default(None)
    yield
    install_default(saved)


# -- the references ---------------------------------------------------------


def reference_used_sites(program) -> set:
    """``CompiledProgram.used_sites`` as it was: a walk over every op."""
    sites = set(program.initial_layout.values())
    for op in program.ops:
        sites.update(op.sites)
    return sites


class ReferenceVirtualMap(VirtualMap):
    """The spare search walking the grid cell by cell."""

    def spares_toward_edge(self, site: int, direction: Tuple[int, int]) -> int:
        """Active, unoccupied atoms along ``direction`` from ``site`` to edge."""
        return len(self._spare_line(site, direction)[1])

    def _spare_line(
        self, site: int, direction: Tuple[int, int]
    ) -> Tuple[List[int], List[int]]:
        """Walk from ``site`` (exclusive) to the edge.

        Returns ``(active_line, spare_sites)``: the active sites along the
        walk in order, and the subset that are unoccupied (spares).
        """
        grid = self.topology.grid
        row, col = grid.position(site)
        d_row, d_col = direction
        active_line: List[int] = []
        spares: List[int] = []
        row, col = row + d_row, col + d_col
        while 0 <= row < grid.rows and 0 <= col < grid.cols:
            candidate = row * grid.cols + col
            if self.topology.is_active(candidate):
                active_line.append(candidate)
                if candidate not in self.site_to_role:
                    spares.append(candidate)
            row, col = row + d_row, col + d_col
        return active_line, spares

    def best_direction(self, site: int) -> Optional[Tuple[int, int]]:
        """Direction with the most spares from ``site`` to the edge, or
        ``None`` when every direction is spare-free."""
        best = None
        best_count = 0
        for direction in DIRECTIONS:
            count = self.spares_toward_edge(site, direction)
            if count > best_count:
                best_count = count
                best = direction
        return best


class ReferenceRemapMixin:
    """A full rescan on every reset, one op per overstretch check, and
    occupancy as fresh sets."""

    def _reset_adaptation(self) -> None:
        if self.program is None:
            self.virtual_map = None
            return
        self.virtual_map = ReferenceVirtualMap(
            self.topology, reference_used_sites(self.program))
        self._ops = self.program.multiqubit_ops()
        self._ops_by_role = {}
        for index, op in enumerate(self._ops):
            for role in op.sites:
                self._ops_by_role.setdefault(role, []).append(index)
        self._violated = {
            index for index, op in enumerate(self._ops)
            if self._overstretched(op.sites)
        }

    def _violated_ops(self) -> List[ScheduledOp]:
        """Scheduled multiqubit ops whose remapped operands overstretch,
        in program order.

        Distances are static and only role moves change an op's verdict,
        so only the ops addressing roles moved since the last call are
        re-checked; the rest keep their verdict from the full scan made
        when the adaptation was reset.
        """
        moved = self.virtual_map.moved_roles
        if moved:
            stale = {index for role in moved
                     for index in self._ops_by_role.get(role, ())}
            moved.clear()
            for index in stale:
                if self._overstretched(self._ops[index].sites):
                    self._violated.add(index)
                else:
                    self._violated.discard(index)
        return [self._ops[index] for index in sorted(self._violated)]

    def _overstretched(self, roles: Sequence[int]) -> bool:
        """Whether any operand pair of an op on ``roles`` is too far apart."""
        limit = self._distance_limit() + 1e-9
        rows = self.topology.grid.distance_rows()
        translate = self.virtual_map.role_to_site
        sites = [translate[role] for role in roles]
        for i in range(len(sites)):
            row = rows[sites[i]]
            for j in range(i + 1, len(sites)):
                if row[sites[j]] > limit:
                    return True
        return False

    def current_used_sites(self) -> set:
        if self.virtual_map is None:
            raise RuntimeError("strategy not started; call begin() first")
        return set(self.virtual_map.site_to_role)

    def on_loss(self, site: int) -> LossOutcome:
        occupied = set(self.virtual_map.site_to_role)
        if site not in occupied:
            return LossOutcome.spare_loss()
        try:
            updates = self.virtual_map.shift_for_loss(site)
        except RemapFailed:
            return LossOutcome.needs_reload()
        violated = self._violated_ops()
        if violated:
            return self._handle_violations(violated, updates)
        return LossOutcome(
            coped=True, interfering=True, remap_updates=updates
        )


class ReferenceRecompile(AlwaysRecompile):
    """Walks the program's ops for its used sites on every loss."""

    def current_used_sites(self) -> set:
        return reference_used_sites(self.program)

    def on_loss(self, site: int) -> LossOutcome:
        if site not in reference_used_sites(self.program):
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


REFERENCES = {
    "virtual remapping": type("ReferenceVirtualRemap",
                              (ReferenceRemapMixin, VirtualRemap), {}),
    "reroute": type("ReferenceMinorReroute",
                    (ReferenceRemapMixin, MinorReroute), {}),
    "compile small": type("ReferenceCompileSmall",
                          (ReferenceRemapMixin, CompileSmall), {}),
    "c. small+reroute": type("ReferenceCompileSmallReroute",
                             (ReferenceRemapMixin, CompileSmallReroute), {}),
    "recompile": ReferenceRecompile,
}


class FreshInputsLoss:
    """A duck-typed loss model for the reference runs.

    The sampler hands it every shot unchanged, so it bypasses the cached
    draw plan.  It also ignores the runner's active and measured sites and
    reads them afresh from the topology and strategy, then draws one
    scalar uniform per site as the pre-vectorized sampler did.
    """

    def __init__(self, model: LossModel):
        self.model = model
        self.topology: Optional[Topology] = None
        self.strategy = None

    def sample_shot_losses(self, all_sites, measured_sites, rng=None):
        p_vac = self.model.effective_vacuum_loss
        p_meas = self.model.effective_measurement_loss
        measured = set(self.strategy.current_measured_sites())
        lost = set()
        for site in self.topology.active_sites():
            p = p_vac
            if site in measured:
                p = 1.0 - (1.0 - p) * (1.0 - p_meas)
            if p > 0 and rng.random() < p:
                lost.add(site)
        return lost


# -- helpers ----------------------------------------------------------------


def configurations():
    return [(strategy, family, mid)
            for strategy in STRATEGY_ORDER
            for family in ("cnu", "cuccaro")
            for mid in MIDS
            if mid >= LOWEST_MID.get(strategy, 2.0)]


def masked_bytes(result) -> bytes:
    """Canonical JSON of a result, compile-event durations masked.

    Compile events carry host wall time, and every later event's start
    sums it in, so starts are masked too; the other durations, the event
    kinds and their order are compared.
    """
    data = encode(result)
    for event in data["fields"].get("timeline", []):
        fields = event["fields"]
        fields["start"] = None
        if fields["kind"] == "compile":
            fields["duration"] = None
    return json.dumps(data, sort_keys=True).encode()


def run_shots(strategy, circuit, mid, seed, loss_model):
    generator = np.random.default_rng(seed)
    topology = Topology.square(GRID_SIDE, mid)
    if isinstance(loss_model, FreshInputsLoss):
        loss_model.topology = topology
        loss_model.strategy = strategy
    runner = ShotRunner(strategy, circuit, topology,
                        config=CompilerConfig(max_interaction_distance=mid),
                        loss_model=loss_model, rng=generator)
    result = runner.run(max_shots=SHOTS)
    return masked_bytes(result), generator.bit_generator.state


def run_tolerance(strategy, circuit, mid, seed):
    generator = np.random.default_rng(seed)
    result = max_loss_tolerance(strategy, circuit, GRID_SIDE, mid,
                                trials=2, rng=generator)
    return masked_bytes(result), generator.bit_generator.state


# -- the referee ------------------------------------------------------------


@pytest.mark.parametrize("name,family,mid", configurations())
def test_shot_runs_match_the_reference(name, family, mid):
    circuit = build_circuit(family, PROGRAM_SIZE)
    model = LossModel.lossless_readout()
    reloads = 0
    for seed in SEEDS:
        fast = run_shots(make_strategy(name), circuit, mid, seed, model)
        reference = run_shots(REFERENCES[name](), circuit, mid, seed,
                              FreshInputsLoss(model))
        assert fast == reference, (name, family, mid, seed)
        reloads += json.loads(fast[0])["fields"]["reload_count"]
    if name != "recompile":
        # The reused scan only matters across reloads: make sure the
        # runs exercised it.
        assert reloads > 0


@pytest.mark.parametrize("name,family,mid", configurations())
def test_tolerance_trials_match_the_reference(name, family, mid):
    circuit = build_circuit(family, PROGRAM_SIZE)
    for seed in SEEDS:
        fast = run_tolerance(make_strategy(name), circuit, mid, seed)
        reference = run_tolerance(REFERENCES[name](), circuit, mid, seed)
        assert fast == reference, (name, family, mid, seed)


@pytest.mark.parametrize("family", ["cnu", "cuccaro"])
@pytest.mark.parametrize("mid", MIDS)
def test_used_sites_keep_the_set_iteration_order(family, mid):
    """The frozen memo iterates like the set the walk built, so virtual
    maps seeded from it keep their insertion order."""
    strategy = make_strategy("virtual remapping")
    program = strategy.begin(build_circuit(family, PROGRAM_SIZE),
                             Topology.square(GRID_SIDE, mid),
                             CompilerConfig(max_interaction_distance=mid))
    assert list(program.used_sites()) == \
        list(reference_used_sites(program))
    assert program.used_sites() is program.used_sites()
    assert isinstance(program.used_sites(), frozenset)


def test_spare_search_matches_the_walk_on_every_site():
    """Lines from the static table equal the cell-by-cell walk for every
    site and direction, on a grid with holes and a partial occupancy."""
    topology = Topology.square(6, 2.0)
    roles = (0, 7, 8, 14, 20, 27, 33)
    fast = VirtualMap(topology, roles)
    reference = ReferenceVirtualMap(topology, roles)
    for lost in (3, 9, 21, 26):
        topology.remove_atom(lost)
    for site in range(36):
        assert fast.best_direction(site) == reference.best_direction(site)
        for direction in DIRECTIONS:
            assert fast._spare_line(site, direction) == \
                reference._spare_line(site, direction)
            assert fast.spares_toward_edge(site, direction) == \
                reference.spares_toward_edge(site, direction)
    with pytest.raises(IndexError):
        fast.spares_toward_edge(36, (0, 1))
    with pytest.raises(IndexError):
        fast.spares_toward_edge(-1, (0, 1))
