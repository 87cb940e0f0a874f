"""Behavioural tests for the six §VI atom-loss coping strategies."""

import random

import pytest

from repro.core import CompilerConfig
from repro.hardware import NoiseModel, Topology
from repro.loss import (
    AlwaysRecompile,
    AlwaysReload,
    CompileSmall,
    CompileSmallReroute,
    MinorReroute,
    STRATEGY_ORDER,
    VirtualRemap,
    make_strategy,
    max_swap_budget,
)
from repro.workloads import build_circuit

NOISE = NoiseModel.neutral_atom()


def started(strategy, mid=3.0, side=10, size=20):
    circuit = build_circuit("cnu", size)
    topology = Topology.square(side, mid)
    config = CompilerConfig(max_interaction_distance=mid)
    strategy.begin(circuit, topology, config)
    return strategy, topology


class TestFactoryAndBudget:
    @pytest.mark.parametrize("name", STRATEGY_ORDER + ["always reload"])
    def test_factory_builds_all(self, name):
        assert make_strategy(name).name == name

    def test_factory_unknown(self):
        with pytest.raises(KeyError):
            make_strategy("nope")

    def test_swap_budget_paper_number(self):
        # 96.5% two-qubit fidelity, 50% drop budget -> six SWAPs (§VI).
        assert max_swap_budget(NOISE) == 6

    def test_swap_budget_perfect_gates(self):
        perfect = NoiseModel("p", {1: 1.0, 2: 1.0}, 1.0, 1.0, {2: 1e-6})
        assert max_swap_budget(perfect) > 10**6

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, 2.0])
    def test_swap_budget_rejects_bad_drop_factor(self, bad):
        with pytest.raises(ValueError, match="drop_factor"):
            max_swap_budget(NOISE, drop_factor=bad)

    def test_swap_budget_drop_factor_one_allows_nothing(self):
        # log(1) == 0: no success erosion is tolerated, so zero SWAPs —
        # but the boundary value itself is legal.
        assert max_swap_budget(NOISE, drop_factor=1.0) == 0


class TestAlwaysReload:
    def test_spare_loss_ignored(self):
        strategy, topo = started(AlwaysReload())
        spare = next(s for s in topo.active_sites()
                     if s not in strategy.current_used_sites())
        topo.remove_atom(spare)
        outcome = strategy.on_loss(spare)
        assert outcome.coped and not outcome.interfering

    def test_interfering_loss_reloads(self):
        strategy, topo = started(AlwaysReload())
        victim = next(iter(strategy.current_used_sites()))
        topo.remove_atom(victim)
        outcome = strategy.on_loss(victim)
        assert not outcome.coped


class TestVirtualRemap:
    def test_remap_keeps_program_running(self):
        strategy, topo = started(VirtualRemap(), mid=4.0)
        victim = next(iter(strategy.current_used_sites()))
        topo.remove_atom(victim)
        outcome = strategy.on_loss(victim)
        # At MID 4 a single shift rarely overstretches; accept either coped
        # or reload but require consistency with the outcome contract.
        if outcome.coped:
            assert outcome.remap_updates >= 1
            assert victim not in strategy.current_used_sites()
        else:
            assert outcome.interfering

    def test_no_swaps_ever_added(self):
        strategy, topo = started(VirtualRemap(), mid=4.0)
        for _ in range(5):
            victim = next(iter(strategy.current_used_sites()))
            topo.remove_atom(victim)
            if not strategy.on_loss(victim).coped:
                break
        assert strategy.added_swaps == 0

    def test_after_reload_resets(self):
        strategy, topo = started(VirtualRemap(), mid=4.0)
        victim = next(iter(strategy.current_used_sites()))
        topo.remove_atom(victim)
        strategy.on_loss(victim)
        topo.reload()
        strategy.after_reload()
        assert strategy.current_used_sites() == strategy.program.used_sites()

    def test_measured_sites_follow_map(self):
        strategy, topo = started(VirtualRemap(), mid=4.0)
        baseline = strategy.current_measured_sites()
        victim = next(iter(baseline))
        topo.remove_atom(victim)
        outcome = strategy.on_loss(victim)
        if outcome.coped:
            assert victim not in strategy.current_measured_sites()


class TestMinorReroute:
    def test_fixup_adds_swaps_and_erodes_success(self):
        strategy, topo = started(MinorReroute(noise=NOISE), mid=3.0)
        base_success = strategy.shot_success_rate(NOISE)
        # Hammer the program with losses until a fixup happens or it gives up.
        added = False
        for _ in range(12):
            victim = next(iter(strategy.current_used_sites()))
            topo.remove_atom(victim)
            outcome = strategy.on_loss(victim)
            if not outcome.coped:
                break
            if outcome.swaps_added:
                added = True
                break
        if added:
            assert strategy.added_swaps > 0
            assert strategy.shot_success_rate(NOISE) < base_success

    def test_budget_forces_reload(self):
        # A zero-budget reroute behaves like virtual remapping w.r.t.
        # overstretched gates.
        strategy = MinorReroute(noise=NOISE, success_drop_factor=0.999999)
        assert strategy.swap_budget == 0

    def test_outcome_reports_fixup_search(self):
        strategy, topo = started(MinorReroute(noise=NOISE), mid=3.0)
        for _ in range(12):
            victim = next(iter(strategy.current_used_sites()))
            topo.remove_atom(victim)
            outcome = strategy.on_loss(victim)
            if not outcome.coped:
                break
            if outcome.swaps_added:
                assert outcome.ran_fixup_search
                break


class TestCompileSmall:
    def test_compiles_below_true_mid(self):
        strategy, _ = started(CompileSmall(), mid=4.0)
        assert strategy.program.config.max_interaction_distance == 3.0

    def test_rejected_at_mid_2(self):
        strategy = CompileSmall()
        with pytest.raises(ValueError):
            started(strategy, mid=2.0)

    def test_tolerates_stretch_beyond_compiled_mid(self):
        # After compiling at 3, interactions may stretch to 4 before reload.
        strategy, _ = started(CompileSmall(), mid=4.0)
        assert strategy._distance_limit() == pytest.approx(4.0)

    def test_combined_variant_compiles_small_too(self):
        strategy, _ = started(CompileSmallReroute(noise=NOISE), mid=4.0)
        assert strategy.program.config.max_interaction_distance == 3.0
        assert strategy.swap_budget == 6


class TestRecompile:
    def test_recompiles_on_interfering_loss(self):
        strategy, topo = started(AlwaysRecompile(), mid=3.0)
        before = strategy.program
        victim = next(iter(strategy.current_used_sites()))
        topo.remove_atom(victim)
        outcome = strategy.on_loss(victim)
        assert outcome.coped
        assert outcome.recompile_seconds > 0
        assert strategy.program is not before
        # The new program avoids the lost site.
        assert victim not in strategy.program.used_sites()

    def test_reload_restores_pristine_program(self):
        strategy, topo = started(AlwaysRecompile(), mid=3.0)
        pristine = strategy.program
        victim = next(iter(strategy.current_used_sites()))
        topo.remove_atom(victim)
        strategy.on_loss(victim)
        topo.reload()
        strategy.after_reload()
        assert strategy.program is pristine

    def test_gives_up_when_atoms_exhausted(self):
        # 3x3 device, 8-qubit program: one spare; two losses exhaust it.
        circuit = build_circuit("cnu", 8)
        topo = Topology.square(3, 2.0)
        strategy = AlwaysRecompile()
        strategy.begin(circuit, topo, CompilerConfig(max_interaction_distance=2.0))
        outcomes = []
        for site in (0, 1):
            topo.remove_atom(site)
            outcomes.append(strategy.on_loss(site))
        assert not outcomes[-1].coped


class TestSuccessAccounting:
    def test_shot_success_matches_program_when_clean(self):
        strategy, _ = started(VirtualRemap(), mid=3.0)
        assert strategy.shot_success_rate(NOISE) == pytest.approx(
            strategy.program.success_rate(NOISE)
        )

    def test_not_started_raises(self):
        with pytest.raises(RuntimeError):
            VirtualRemap().shot_success_rate(NOISE)
        with pytest.raises(RuntimeError):
            VirtualRemap().current_used_sites()


def full_scan_violations(strategy):
    """Every multiqubit op with an operand pair beyond the distance limit
    under the current virtual map: the scan ``_violated_ops`` made over
    the whole program after every shift before it became incremental."""
    limit = strategy._distance_limit() + 1e-9
    grid = strategy.topology.grid
    translate = strategy.virtual_map.role_to_site
    violated = []
    for op in strategy.program.multiqubit_ops():
        sites = [translate[s] for s in op.sites]
        if any(grid.distance(sites[i], sites[j]) > limit
               for i in range(len(sites))
               for j in range(i + 1, len(sites))):
            violated.append(op)
    return violated


class TestIncrementalViolationScan:
    CASES = [
        (VirtualRemap, 2.0), (VirtualRemap, 3.0),
        (MinorReroute, 2.0), (MinorReroute, 3.0),
        (CompileSmall, 3.0), (CompileSmall, 4.0),
        (CompileSmallReroute, 3.0), (CompileSmallReroute, 4.0),
    ]

    @pytest.mark.parametrize("family", ["cnu", "cuccaro"])
    @pytest.mark.parametrize("cls,mid", CASES)
    def test_matches_full_scan_after_every_loss(self, cls, mid, family):
        strategy = cls()
        topology = Topology.square(10, mid)
        strategy.begin(build_circuit(family, 20), topology,
                       CompilerConfig(max_interaction_distance=mid))
        rng = random.Random(f"{cls.__name__}-{mid}-{family}")
        seen_violation = False
        reloads = 0
        for _ in range(120):
            site = rng.choice(topology.active_sites())
            topology.remove_atom(site)
            outcome = strategy.on_loss(site)
            violated = strategy._violated_ops()
            assert violated == full_scan_violations(strategy)
            seen_violation = seen_violation or bool(violated)
            if not outcome.coped:
                topology.reload()
                strategy.after_reload()
                reloads += 1
                assert strategy._violated_ops() == full_scan_violations(
                    strategy)
        assert reloads > 0
        if cls in (MinorReroute, CompileSmallReroute):
            # Fixups let violations persist across later losses.
            assert seen_violation
