"""Tests for the random-circuit generators and the margin ablation."""

import pytest

from repro.core import CompilerConfig, check_compiled, compile_circuit
from repro.experiments import ablation_margin
from repro.hardware import Topology
from repro.workloads import random_circuit


class TestRandomCircuit:
    def test_gate_count_and_width(self):
        c = random_circuit(5, 20, rng=0)
        assert c.num_qubits == 5
        assert len(c) == 20

    def test_deterministic_by_seed(self):
        assert random_circuit(5, 15, rng=3) == random_circuit(5, 15, rng=3)
        assert random_circuit(5, 15, rng=3) != random_circuit(5, 15, rng=4)

    def test_arity_weights_respected(self):
        only_1q = random_circuit(4, 30, arity_weights=(1, 0, 0), rng=0)
        assert all(g.arity == 1 for g in only_1q)
        only_2q = random_circuit(4, 30, arity_weights=(0, 1, 0), rng=0)
        assert all(g.arity == 2 for g in only_2q)

    def test_three_qubit_fallback_on_small_register(self):
        c = random_circuit(2, 20, arity_weights=(0, 0, 1), rng=0)
        assert all(g.arity == 2 for g in c)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_circuit(1, 5)
        with pytest.raises(ValueError):
            random_circuit(3, -1)
        with pytest.raises(ValueError):
            random_circuit(3, 5, arity_weights=(0, 0, 0))
        with pytest.raises(ValueError):
            random_circuit(3, 5, arity_weights=(1, 1))

    def test_random_circuit_compiles_and_verifies(self):
        c = random_circuit(6, 15, rng=7)
        program = compile_circuit(
            c, Topology.square(3, 2.0),
            CompilerConfig(max_interaction_distance=2.0),
        )
        assert check_compiled(program, trials=3)


class TestMarginAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return ablation_margin.run(
            program_size=20, true_mid=5.0, margins=(1.0, 2.0),
            trials=2, rng=0,
        )

    def test_bigger_margin_worse_program(self, result):
        small = result.select(1.0)
        large = result.select(2.0)
        assert large.gates >= small.gates
        assert large.clean_success <= small.clean_success
        assert large.compiled_mid < small.compiled_mid

    def test_tolerance_reported(self, result):
        for point in result.points:
            assert 0.0 <= point.tolerance_fraction <= 1.0
        assert "Margin" in result.format()
