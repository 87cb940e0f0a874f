"""Tests for the error-analysis layer (Figs 7-8 machinery)."""

import pytest

from repro.analysis import (
    ProgramMetrics,
    calibrate_two_qubit_error,
    compare_architectures,
    compiled_metrics,
    error_sweep,
    neutral_atom_arch,
    superconducting_arch,
    valid_sizes,
)
from repro.analysis.success import largest_runnable_from, size_ladder_grid_map
from repro.api import Session
from repro.core import CompilerConfig, compile_circuit
from repro.hardware import NoiseModel, Topology
from repro.workloads import build_circuit

NA = neutral_atom_arch(mid=3.0, grid_side=6, native_max_arity=3)
SC = superconducting_arch(grid_side=6)


class TestProgramMetrics:
    def test_from_program_consistency(self):
        circuit = build_circuit("cuccaro", 10)
        topo = Topology.square(6, 3.0)
        program = compile_circuit(circuit, topo,
                                  CompilerConfig(max_interaction_distance=3.0))
        metrics = ProgramMetrics.from_program(program, benchmark="cuccaro")
        noise = NoiseModel.neutral_atom()
        assert metrics.gate_count == program.gate_count()
        assert metrics.depth == program.depth()
        assert metrics.swap_count == program.swap_count
        assert metrics.arity_counts() == dict(program.counts_by_arity())
        assert metrics.duration(noise) == pytest.approx(program.duration(noise))
        assert metrics.success_rate(noise) == pytest.approx(
            program.success_rate(noise)
        )

    def test_error_rate_complement(self):
        metrics = compiled_metrics("bv", 10, NA)
        noise = NoiseModel.neutral_atom()
        assert metrics.error_rate(noise) == pytest.approx(
            1.0 - metrics.success_rate(noise)
        )


class TestArchCache:
    def test_cache_returns_same_object(self):
        with Session().activate():
            a = compiled_metrics("bv", 10, NA)
            b = compiled_metrics("bv", 10, NA)
        assert a is b

    def test_memo_is_per_session_cache(self):
        """A second session with its own cache compiles for itself; the
        first session's memo never answers for it."""
        first, second = Session(), Session()
        with first.activate():
            a = compiled_metrics("bv", 10, NA)
        with second.activate():
            b = compiled_metrics("bv", 10, NA)
        assert a == b and a is not b
        assert first.cache_stats()["misses"] == 1
        assert second.cache_stats()["misses"] == 1

    def test_arch_distinguished(self):
        a = compiled_metrics("bv", 10, NA)
        b = compiled_metrics("bv", 10, SC)
        assert a.mid != b.mid

    def test_noise_families(self):
        assert NA.noise().name.startswith("neutral")
        assert SC.noise().name.startswith("superconducting")
        assert NA.noise(two_qubit_error=1e-3).two_qubit_error == pytest.approx(1e-3)


class TestSweeps:
    def test_error_sweep_range(self):
        errors = error_sweep(5)
        assert errors[0] == pytest.approx(1e-5)
        assert errors[-1] == pytest.approx(1e-1)
        assert len(errors) == 5

    def test_valid_sizes_deduplicated(self):
        sizes = valid_sizes("cuccaro", 30, step=2)
        built = [build_circuit("cuccaro", s).num_qubits for s in sizes]
        assert len(built) == len(set(built))

    def test_comparison_monotone_in_error(self):
        cmp_result = compare_architectures("bv", 12, NA, SC, error_sweep(5))
        na_errors = [e for _, e in cmp_result.na_curve]
        assert na_errors == sorted(na_errors)

    def test_na_diverges_at_higher_error(self):
        # The paper's headline: NA's viability threshold beats SC's.
        cmp_result = compare_architectures("bv", 16, NA, SC, error_sweep(9))
        na_div, sc_div = cmp_result.divergence_error()
        assert na_div >= sc_div

    def test_largest_runnable_monotone(self):
        sizes = valid_sizes("bv", 20, step=5)
        ladder, = size_ladder_grid_map([("bv", NA, sizes)])
        low = largest_runnable_from(ladder, NA, 1e-5)
        high = largest_runnable_from(ladder, NA, 5e-2)
        assert low >= high

    def test_size_curve_shape(self):
        # Fig 8 builds each curve this way: one ladder, thresholded per
        # error rate.
        sizes = valid_sizes("bv", 20, step=5)
        ladder, = size_ladder_grid_map([("bv", NA, sizes)])
        curve = [(error, largest_runnable_from(ladder, NA, error))
                 for error in [1e-4, 1e-2]]
        assert len(curve) == 2
        assert curve[0][1] >= curve[1][1]


class TestCalibration:
    def test_calibrated_error_hits_target(self):
        metrics = compiled_metrics("cnu", 16, NA)
        error = calibrate_two_qubit_error(
            metrics, NoiseModel.neutral_atom, target_success=0.6
        )
        achieved = metrics.success_rate(NoiseModel.neutral_atom(error))
        assert achieved == pytest.approx(0.6, abs=0.01)

    def test_unreachable_target_rejected(self):
        metrics = compiled_metrics("cnu", 16, NA)
        with pytest.raises(ValueError):
            # Success ~1 requires error below the bisection floor for a
            # target of exactly 1.0 + margin; use an impossible target.
            calibrate_two_qubit_error(
                metrics, NoiseModel.neutral_atom, target_success=1.1
            )
