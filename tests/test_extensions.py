"""Tests for the ablation/extension experiments and the CLI."""

import pytest

from repro.__main__ import main as cli_main
from repro.experiments import (
    ablation_lookahead,
    ablation_zones,
    ext_device_scaling,
    ext_ejection_readout,
    ext_validation_noisy,
)


class TestZoneAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return ablation_zones.run(benchmarks=("qaoa",), program_size=20,
                                  mid=4.0)

    def test_depth_monotone_in_radius(self, result):
        none = result.select("qaoa", "none", 1.0).depth
        half = result.select("qaoa", "half", 1.0).depth
        full = result.select("qaoa", "full", 1.0).depth
        assert none <= half <= full

    def test_depth_monotone_in_scale(self, result):
        depths = [result.select("qaoa", "half", s).depth
                  for s in (1.0, 1.5, 2.0)]
        assert depths == sorted(depths)

    def test_gates_unaffected_by_zones(self, result):
        gates = {p.gates for p in result.points}
        # Zones serialize; routing still sees the same connectivity.  The
        # heuristic may shift a swap or two, so allow a tiny spread.
        assert max(gates) - min(gates) <= 0.1 * max(gates)

    def test_format(self, result):
        assert "Zone" in result.format()

    def test_zones_never_reduce_depth(self):
        result = ablation_zones.run(benchmarks=("qft-adder", "cuccaro"),
                                    program_size=20, mid=4.0)
        for benchmark in ("qft-adder", "cuccaro"):
            assert (result.select(benchmark, "none", 1.0).depth
                    <= result.select(benchmark, "full", 1.0).depth)


class TestLookaheadAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return ablation_lookahead.run(program_size=24)

    def test_lookahead_helps_at_mid1(self, result):
        assert result.lookahead_benefit("bv", 1.0) >= 0.0

    def test_lookahead_matters_less_at_long_range(self, result):
        # The paper's claim: dense connectivity makes simple heuristics
        # sufficient — deep lookahead buys less at MID 3 than at MID 1.
        assert (result.lookahead_benefit("bv", 3.0)
                <= result.lookahead_benefit("bv", 1.0) + 1e-9)

    def test_format(self, result):
        assert "Lookahead" in result.format()


class TestEjectionReadout:
    def test_strategies_only_help_small_programs(self):
        result = ext_ejection_readout.run(sizes=(12, 60), shots=40, rng=0)
        small_gain = (result.reloads_per_success(12, "always reload")
                      >= result.reloads_per_success(12, "c. small+reroute"))
        small = result.runs[(12, "c. small+reroute")]
        large = result.runs[(60, "c. small+reroute")]
        # The small program reloads strictly less often than the large one.
        assert small.reload_count < large.reload_count
        assert "Ejection" in result.format()


class TestDeviceScaling:
    def test_saturation_mid_grows_with_device(self):
        result = ext_device_scaling.run(grid_sides=(6, 10, 14))
        assert (result.saturation_mid[6] <= result.saturation_mid[10]
                <= result.saturation_mid[14])
        assert "Scaling" in result.format()

    def test_curves_monotone_decreasing(self):
        result = ext_device_scaling.run(grid_sides=(6,))
        gates = [g for _, g in result.curves[6]]
        assert gates == sorted(gates, reverse=True)


class TestNoisyValidation:
    def test_model_agrees_with_sampling(self):
        result = ext_validation_noisy.run(
            program_size=6, errors=(0.005, 0.02), shots=300,
        )
        assert result.max_gap < 0.1
        assert "Monte-Carlo" in result.format()


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "fig14" in out

    def test_run_quick_validation(self, capsys):
        assert cli_main(["run", "validation", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "all equivalent: True" in out

    def test_unknown_experiment(self, capsys):
        assert cli_main(["run", "nope"]) == 2
