"""Tests for the trapped-ion comparator and the geometry extension."""

import pytest

from repro.analysis import (
    compiled_metrics,
    neutral_atom_arch,
    trapped_ion_arch,
)
from repro.experiments import ext_geometry, ext_trapped_ion
from repro.hardware import NoiseModel
from repro.hardware.restriction import RestrictionModel, global_restriction


class TestGlobalRestriction:
    def test_entangling_gates_fully_serialize(self):
        model = RestrictionModel(global_restriction)
        # Two far-apart 2q gates still conflict under the phonon-bus model.
        assert model.conflict([(0, 0), (0, 1)], [(9, 9), (9, 8)])

    def test_single_qubit_gates_can_pair(self):
        model = RestrictionModel(global_restriction)
        assert not model.conflict([(0, 0)], [(9, 9)])

    def test_single_qubit_blocked_during_entangling(self):
        model = RestrictionModel(global_restriction)
        assert model.conflict([(0, 0), (0, 1)], [(9, 9)])

    def test_available_by_name(self):
        assert not RestrictionModel("global").disabled


class TestTrappedIonNoise:
    def test_named_model(self):
        ti = NoiseModel.trapped_ion()
        assert ti.fidelity(2) == pytest.approx(0.975)
        # Slow gates: two-qubit MS gate is ~3 orders slower than Rydberg.
        na = NoiseModel.neutral_atom()
        assert ti.duration_of(2) > 100 * na.duration_of(2)

    def test_error_rescaling(self):
        ti = NoiseModel.trapped_ion(two_qubit_error=1e-3)
        assert ti.two_qubit_error == pytest.approx(1e-3)


class TestTrappedIonArchitecture:
    def test_all_to_all_no_swaps(self):
        metrics = compiled_metrics("bv", 20, trapped_ion_arch())
        assert metrics.swap_count == 0

    def test_serialization_on_parallel_benchmark(self):
        ti = compiled_metrics("cnu", 20, trapped_ion_arch())
        na = compiled_metrics(
            "cnu", 20, neutral_atom_arch(mid=3.0, native_max_arity=3)
        )
        assert ti.depth >= na.depth

    def test_three_way_comparison_shapes(self):
        result = ext_trapped_ion.run(program_size=20)
        for benchmark in ("bv", "cnu", "cuccaro", "qft-adder", "qaoa"):
            # TI inserts no SWAPs; SC inserts some.
            assert result.metrics(benchmark, "ti").swap_count == 0
            assert result.metrics(benchmark, "sc").swap_count > 0
            # TI's slow serialized gates cost orders of magnitude in time.
            assert (result.duration(benchmark, "ti")
                    > 50 * result.duration(benchmark, "na"))
        assert "Trapped-Ion" in result.format()


class TestGeometryExtension:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_geometry.run(benchmarks=("bv", "qaoa", "cuccaro"),
                                grid_side=5, mids=(2.0, 3.0))

    def test_square_beats_line_on_swaps(self, result):
        for benchmark in ("bv", "qaoa", "cuccaro"):
            for mid in (2.0, 3.0):
                line = result.select(benchmark, "line", mid)
                square = result.select(benchmark, "square", mid)
                assert square.swaps <= line.swaps
                assert square.gates <= line.gates

    def test_swap_advantage_positive_for_bv(self, result):
        assert result.swap_advantage("bv", 2.0) > 0.0

    def test_format(self, result):
        assert "1D Chain" in result.format()
