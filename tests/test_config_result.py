"""Tests for CompilerConfig validation and CompiledProgram details."""

import pytest

from repro.circuits import Circuit
from repro.circuits.gates import ccx, cx, h
from repro.core import CompilerConfig, compile_circuit
from repro.core.result import ScheduledOp
from repro.core.errors import DisconnectedTopologyError, SchedulingStalledError
from repro.core.scheduler import schedule_circuit
from repro.hardware import NoiseModel, Topology
from repro.workloads import bernstein_vazirani


class TestConfigValidation:
    def test_defaults_valid(self):
        config = CompilerConfig()
        assert config.max_interaction_distance == 3.0
        assert config.native_max_arity == 3

    @pytest.mark.parametrize("kwargs", [
        dict(max_interaction_distance=0.5),
        dict(restriction_radius="bogus"),
        dict(native_max_arity=1),
        dict(lookahead_layers=0),
        dict(lookahead_decay=0.0),
        dict(swap_depth_cost=0),
        dict(zone_scale=-1.0),
        dict(max_timestep_factor=0),
        dict(max_timestep_factor=-3),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CompilerConfig(**kwargs)

    @pytest.mark.parametrize("field", [
        "max_interaction_distance", "zone_scale", "lookahead_decay"])
    def test_nan_rejected_by_name(self, field):
        with pytest.raises(ValueError, match=field):
            CompilerConfig(**{field: float("nan")})

    def test_infinite_mid_allowed(self):
        # An all-to-all device; every comparison stays meaningful.
        config = CompilerConfig(max_interaction_distance=float("inf"))
        assert config.max_interaction_distance == float("inf")

    def test_max_timestep_factor_message(self):
        # A factor below 1 used to be accepted, and then every compile with
        # gates failed with "no progress after 0 timesteps".
        with pytest.raises(ValueError, match="max_timestep_factor must be >= 1"):
            CompilerConfig(max_timestep_factor=0)
        assert CompilerConfig(max_timestep_factor=1).max_timestep_factor == 1

    def test_variants(self):
        config = CompilerConfig()
        assert config.with_mid(5.0).max_interaction_distance == 5.0
        assert CompilerConfig(
            restriction_radius="none").restriction_model().disabled
        assert config.decomposed().native_max_arity == 2

    def test_sc_like_preset(self):
        config = CompilerConfig.superconducting_like()
        assert config.max_interaction_distance == 1.0
        assert config.restriction_model().disabled
        assert config.native_max_arity == 2

    def test_frozen(self):
        config = CompilerConfig()
        with pytest.raises(Exception):
            config.lookahead_layers = 5


class TestScheduledOp:
    def test_swap_op(self):
        op = ScheduledOp(gate=None, sites=(3, 4), timestep=2)
        assert op.is_swap
        assert op.name == "swap"
        assert op.arity == 2
        assert "swap" in str(op)

    def test_gate_op(self):
        op = ScheduledOp(gate=cx(0, 1), sites=(5, 6), timestep=0,
                         source_index=3)
        assert not op.is_swap
        assert op.name == "cx"
        assert op.source_index == 3


class TestCompiledProgramDetails:
    @pytest.fixture(scope="class")
    def program(self):
        return compile_circuit(
            bernstein_vazirani(6),
            Topology.square(3, 1.0),
            CompilerConfig.superconducting_like(),
        )

    def test_physical_circuit_width(self, program):
        physical = program.to_physical_circuit()
        assert physical.num_qubits == 9

    def test_compile_seconds_recorded(self, program):
        assert program.compile_seconds > 0

    def test_depth_charges_swaps_triple(self, program):
        # With swap_depth_cost=3, depth >= timesteps when swaps exist.
        if program.swap_count:
            assert program.depth() > len(program.schedule)

    def test_success_rate_between_zero_and_one(self, program):
        rate = program.success_rate(NoiseModel.neutral_atom())
        assert 0.0 < rate < 1.0

    def test_repr(self, program):
        assert "CompiledProgram" in repr(program)


class TestSchedulerGuards:
    def test_non_injective_mapping_rejected(self):
        circuit = Circuit(2, [cx(0, 1)])
        topo = Topology.square(2, 1.0)
        with pytest.raises(ValueError):
            schedule_circuit(circuit, topo,
                             CompilerConfig(max_interaction_distance=1.0),
                             {0: 0, 1: 0})

    def test_stall_guard_trips(self):
        # A native Toffoli can never fit MID 1 on a square grid.  Once its
        # operands form an L, no neighbour is strictly closer, and the BFS
        # fallback swaps two of the operands back and forth forever.  The
        # scheduler must raise the budget's error rather than loop.
        topo = Topology.square(3, 1.0)
        circuit = Circuit(3, [ccx(0, 1, 2)])
        config = CompilerConfig(max_interaction_distance=1.0,
                                max_timestep_factor=5)
        with pytest.raises(SchedulingStalledError) as exc_info:
            schedule_circuit(circuit, topo, config, {0: 0, 1: 1, 2: 4})
        assert str(exc_info.value) == (
            "no progress after 10 timesteps (0/1 gates scheduled)"
        )

    def test_budget_trips_without_a_repeated_mapping(self):
        # The far CX needs three SWAPs before it can run, more than a
        # budget of 1 x (1 + 1) timesteps: the budget is the backstop for
        # stalls the livelock check cannot see.
        topo = Topology.square(3, 1.0)
        config = CompilerConfig(max_interaction_distance=1.0,
                                max_timestep_factor=1)
        with pytest.raises(SchedulingStalledError) as exc_info:
            schedule_circuit(Circuit(2, [cx(0, 1)]), topo, config,
                             {0: 0, 1: 8})
        assert str(exc_info.value) == (
            "no progress after 2 timesteps (0/1 gates scheduled)"
        )

    def test_disconnected_operands_raise(self):
        # A gate between two disconnected islands, fed directly to the
        # scheduler with a pathological mapping.
        topo = Topology.square(3, 1.0)
        for site in (1, 4, 7):
            topo.remove_atom(site)
        circuit = Circuit(2, [cx(0, 1)])
        config = CompilerConfig(max_interaction_distance=1.0,
                                max_timestep_factor=5)
        with pytest.raises(DisconnectedTopologyError) as exc_info:
            schedule_circuit(circuit, topo, config, {0: 0, 1: 2})
        assert str(exc_info.value) == (
            "cannot route gate cx 0, 1 — interaction graph is disconnected"
        )
