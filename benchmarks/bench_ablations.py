"""Benches for the design-choice ablations DESIGN.md §5 calls out."""

from repro.experiments import (
    ablation_lookahead,
    ablation_margin,
    ext_geometry,
    ext_trapped_ion,
    ablation_zones,
    ext_device_scaling,
    ext_ejection_readout,
    ext_validation_noisy,
)


def test_ablation_zone_shape(record_figure):
    result = ablation_zones.run(program_size=30)
    record_figure("ablation_zones", result.format())
    for bench in ("qaoa", "qft-adder", "cuccaro"):
        assert (result.select(bench, "none", 1.0).depth
                <= result.select(bench, "full", 1.0).depth)


def test_ablation_lookahead(record_figure):
    result = ablation_lookahead.run(program_size=30)
    record_figure("ablation_lookahead", result.format())
    assert (result.lookahead_benefit("bv", 3.0)
            <= result.lookahead_benefit("bv", 1.0) + 1e-9)


def test_ext_ejection_readout(record_figure):
    result = ext_ejection_readout.run(shots=100, rng=0)
    record_figure("ext_ejection", result.format())
    small = result.runs[(12, "c. small+reroute")]
    large = result.runs[(60, "c. small+reroute")]
    assert small.reload_count < large.reload_count


def test_ext_device_scaling(record_figure):
    result = ext_device_scaling.run(grid_sides=(6, 10, 14))
    record_figure("ext_scaling", result.format())
    assert (result.saturation_mid[14] >= result.saturation_mid[6])


def test_ext_noisy_validation(record_figure):
    result = ext_validation_noisy.run(shots=400)
    record_figure("ext_noisy_validation", result.format())
    assert result.max_gap < 0.2


def test_ext_trapped_ion(record_figure):
    result = ext_trapped_ion.run(program_size=30)
    record_figure("ext_trapped_ion", result.format())
    for bench in ("bv", "cnu", "cuccaro", "qft-adder", "qaoa"):
        assert result.metrics(bench, "ti").swap_count == 0
        assert (result.duration(bench, "ti")
                > 10 * result.duration(bench, "na"))


def test_ext_geometry(record_figure):
    result = ext_geometry.run(grid_side=6)
    record_figure("ext_geometry", result.format())
    for bench in ("bv", "cuccaro", "qaoa"):
        for mid in (2.0, 3.0):
            line = result.select(bench, "line", mid)
            square = result.select(bench, "square", mid)
            assert square.swaps <= line.swaps


def test_ablation_compile_margin(record_figure):
    result = ablation_margin.run(program_size=30, true_mid=5.0,
                                margins=(1.0, 2.0, 3.0), trials=3)
    record_figure("ablation_margin", result.format())
    assert result.select(3.0).gates >= result.select(1.0).gates
    assert result.select(3.0).clean_success <= result.select(1.0).clean_success
