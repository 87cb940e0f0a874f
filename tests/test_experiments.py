"""Smoke + shape tests for every figure driver (reduced parameters).

Each test regenerates a miniature version of the corresponding paper
figure and asserts the qualitative claim the figure makes — who wins, in
which direction the curve bends — rather than absolute numbers.
"""

import pytest

from repro.experiments import (
    fig3_gate_count,
    fig4_depth,
    fig5_serialization,
    fig6_multiqubit,
    fig7_success,
    fig8_program_size,
    fig10_loss_tolerance,
    fig11_shot_success,
    fig12_overhead,
    fig13_sensitivity,
    fig14_timeline,
    validation,
)

SMALL_MIDS = (2.0, 3.0)
#: MIDs out to the long range where the compilation figures flatten.
LONG_MIDS = (2.0, 3.0, 5.0, 13.0)
FIG3_BENCHMARKS = ("bv", "cuccaro", "qft-adder", "qaoa")


@pytest.fixture(scope="module")
def fig3_result():
    return fig3_gate_count.run(
        benchmarks=FIG3_BENCHMARKS, mids=LONG_MIDS,
        max_size=30, size_step=10, bv_line_sizes=(15, 27),
    )


class TestFig3:
    def test_savings_positive_and_growing(self, fig3_result):
        for benchmark in FIG3_BENCHMARKS:
            s2 = fig3_result.saving(benchmark, 2.0)
            s3 = fig3_result.saving(benchmark, 3.0)
            assert s2 > 0.0
            assert s3 >= s2 - 0.02  # growth up to small heuristic noise

    def test_most_benefit_arrives_early(self, fig3_result):
        # MID 5 -> 13 adds little next to MID 1 -> 3.
        for benchmark in FIG3_BENCHMARKS:
            late_gain = (fig3_result.saving(benchmark, 13.0)
                         - fig3_result.saving(benchmark, 5.0))
            early_gain = fig3_result.saving(benchmark, 3.0)
            assert late_gain <= early_gain + 0.02

    def test_bv_series_decreasing_in_mid(self, fig3_result):
        for size, series in fig3_result.bv_series.items():
            counts = [c for _, c in series]
            assert counts[0] >= counts[-1]

    def test_format_renders(self, fig3_result):
        text = fig3_result.format()
        assert "Gate Count Savings" in text
        assert "bv" in text


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return fig4_depth.run(
            benchmarks=("bv", "cuccaro"), mids=LONG_MIDS,
            max_size=30, size_step=10, qft_line_sizes=(10,),
        )

    def test_depth_savings(self, result):
        assert result.saving("bv", 3.0) > 0.0
        assert result.saving("cuccaro", 3.0) > 0.0
        assert "Depth Savings" in result.format()

    def test_qft_line_flattens_at_long_range(self, result):
        # Restriction zones cap the benefit: MID 5 -> 13 saves little.
        for series in result.qft_series.values():
            depth_by_mid = dict(series)
            assert depth_by_mid[13.0] >= 0.9 * depth_by_mid[5.0]


class TestFig5:
    def test_parallel_benchmark_serializes_most(self):
        result = fig5_serialization.run(
            mids=(3.0,), max_size=20, size_step=10, qaoa_line_sizes=(12,),
        )
        # Zones only ever add depth...
        for row in result.bars:
            assert row.mean_increase >= 0.0
        # ...and cost the parallel benchmarks more than the serial ones.
        assert (result.increase("qft-adder", 3.0)
                >= result.increase("bv", 3.0))
        parallel = max(result.increase(b, 3.0)
                       for b in ("qft-adder", "qaoa", "cnu"))
        serial = max(result.increase(b, 3.0) for b in ("bv", "cuccaro"))
        assert parallel >= serial

    def test_zoned_depth_at_least_ideal(self):
        result = fig5_serialization.run(
            benchmarks=("qaoa",), mids=(3.0,),
            max_size=16, size_step=8, qaoa_line_sizes=(12,),
        )
        for series in result.qaoa_series.values():
            for _, zoned, ideal in series:
                assert zoned >= ideal


class TestFig6:
    def test_native_wins_everywhere_above_mid1(self):
        result = fig6_multiqubit.run(sizes=(16,), mids=(2.0, 3.0))
        for point in result.points:
            if point.mid >= 2.0:
                assert point.native_gates < point.decomposed_gates
                assert point.native_depth < point.decomposed_depth
        # The headline gate factor for Toffoli-heavy code.
        assert max(p.gate_ratio for p in result.points
                   if p.benchmark == "cnu" and p.mid >= 2.0) >= 4.0

    def test_mid1_curves_coincide(self):
        result = fig6_multiqubit.run(sizes=(16,), mids=(2.0,))
        for point in result.points:
            if point.mid == 1.0:
                assert point.native_gates == point.decomposed_gates

    def test_format(self):
        result = fig6_multiqubit.run(sizes=(12,), mids=(2.0,))
        assert "Native 3-Qubit" in result.format()


class TestFig7:
    def test_na_diverges_at_higher_error(self):
        result = fig7_success.run(program_size=20, error_points=9)
        for name, cmp_result in result.comparisons.items():
            na_div, sc_div = cmp_result.divergence_error()
            assert na_div >= sc_div, name
            errors = [program_err for _, program_err in cmp_result.na_curve]
            assert errors == sorted(errors), name

    def test_curves_monotone(self):
        result = fig7_success.run(benchmarks=("bv",), program_size=16,
                                  error_points=7)
        curve = result.comparisons["bv"].na_curve
        errs = [program_err for _, program_err in curve]
        assert errs == sorted(errs)
        assert "Success Rate" in result.format()


class TestFig8:
    def test_na_runs_larger_programs(self):
        result = fig8_program_size.run(max_size=30, size_step=5,
                                       error_points=9)
        for name, (na_curve, sc_curve) in result.curves.items():
            assert result.advantage_points(name) >= 1, name
            # And SC never runs a larger program than NA at any error.
            for (_, na_size), (_, sc_size) in zip(na_curve, sc_curve):
                assert na_size >= sc_size, name
            sizes = [size for _, size in na_curve]
            assert sizes == sorted(sizes, reverse=True), name

    def test_size_curves_monotone_decreasing(self):
        result = fig8_program_size.run(
            benchmarks=("cuccaro",), max_size=30, size_step=5,
            error_points=7,
        )
        na_curve, _ = result.curves["cuccaro"]
        sizes = [s for _, s in na_curve]
        assert sizes == sorted(sizes, reverse=True)
        assert "Largest Runnable" in result.format()


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10_loss_tolerance.run(
            benchmarks=("cnu", "cuccaro"), mids=(2.0, 4.0, 5.0),
            program_size=20, trials=2, rng=0,
        )

    def test_recompile_dominates(self, result):
        for benchmark in ("cnu", "cuccaro"):
            for mid in (2.0, 4.0, 5.0):
                recompile = result.fraction(benchmark, "recompile", mid)
                for other in ("virtual remapping", "reroute"):
                    assert recompile >= result.fraction(benchmark, other,
                                                        mid)

    def test_tolerance_grows_with_mid(self, result):
        for benchmark in ("cnu", "cuccaro"):
            for strategy, mid in (("recompile", 4.0),
                                  ("virtual remapping", 5.0)):
                assert (result.fraction(benchmark, strategy, mid)
                        >= result.fraction(benchmark, strategy, 2.0))

    def test_recompile_nears_the_cap_at_long_range(self, result):
        # The ideal cap is 70% of the device's atoms.
        for benchmark in ("cnu", "cuccaro"):
            assert result.fraction(benchmark, "recompile", 5.0) >= 0.45

    def test_compile_small_absent_at_mid2(self, result):
        assert ("cnu", "compile small", 2.0) not in result.cells
        assert ("cnu", "compile small", 4.0) in result.cells
        assert "Max Atom Loss" in result.format()


class TestFig11:
    def test_success_never_increases_for_reroute(self):
        # Single trial: pointwise averages of ragged traces may wobble when
        # a short (low) trial ends, but each individual trace is monotone.
        result = fig11_shot_success.run(
            benchmarks=("cnu",), strategies=("reroute",), mids=(2.0,),
            max_holes=8, program_size=16, trials=1, rng=0,
        )
        trace = result.trace("cnu", "reroute", 2.0)
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier + 1e-9
        assert "Shot Success" in result.format()

    def test_base_success_near_target(self):
        result = fig11_shot_success.run(
            benchmarks=("cnu", "cuccaro"), strategies=("recompile",),
            mids=(3.0,), max_holes=2, program_size=16, trials=1, rng=0,
        )
        for benchmark in ("cnu", "cuccaro"):
            trace = result.trace(benchmark, "recompile", 3.0)
            assert trace[0] == pytest.approx(0.6, abs=0.05)


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        return fig12_overhead.run(
            strategies=("virtual remapping", "always reload",
                        "c. small+reroute", "reroute"),
            mids=(3.0, 5.0), shots=120, program_size=20, rng=0,
        )

    def test_always_reload_is_worst(self, result):
        for mid in (3.0, 5.0):
            reload_overhead = result.overhead("always reload", mid)
            for name in ("virtual remapping", "c. small+reroute",
                         "reroute"):
                assert result.overhead(name, mid) <= reload_overhead

    def test_reload_dominates_breakdown(self, result):
        for mid in (3.0, 5.0):
            kinds = result.runs[("always reload", mid)].time_by_kind()
            assert kinds["reload"] > kinds["fluorescence"]
            assert kinds["reload"] >= kinds["fixup"]
        assert "Overhead Time" in result.format()


class TestFig13:
    def test_improvement_extends_shot_runs(self):
        result = fig13_sensitivity.run(
            mids=(4.0,), factors=(1.0, 30.0), shots_per_run=150,
            program_size=20, rng=0,
        )
        series = result.series(4.0)
        assert series[-1][1] > series[0][1]
        # Roughly proportional: 30x more reliable atoms give well over
        # 3x the shots before a reload.
        assert (series[-1][1] + 1) / (series[0][1] + 1) > 3.0
        assert "Successful Shots" in result.format()


@pytest.fixture(scope="module")
def fig14_run():
    """One default-size, 20-shot Fig 14 run: at this program size the
    20 shots include a reload."""
    return fig14_timeline.run(target_shots=20)


class TestFig14:
    def test_twenty_successful_shots(self, fig14_run):
        assert fig14_run.run_result.shots_successful == 20
        assert fig14_run.run_result.time_by_kind()["reload"] > 0.0
        text = fig14_run.format()
        assert "Timeline" in text
        assert "reload" in text

    def test_reload_and_fluorescence_dominate(self, fig14_run):
        run_result = fig14_run.run_result
        kinds = run_result.time_by_kind()
        assert kinds["reload"] > 0.0
        overhead = kinds["reload"] + kinds["fluorescence"]
        assert overhead > 0.5 * run_result.total_time

    def test_circuit_execution_is_negligible(self, fig14_run):
        run_result = fig14_run.run_result
        assert run_result.shots_successful == 20
        kinds = run_result.time_by_kind()
        assert kinds["reload"] > 0.0
        assert (kinds["reload"] + kinds["fluorescence"]
                > 0.8 * run_result.total_time)
        assert kinds["run"] < 0.05 * run_result.total_time


class TestValidation:
    def test_all_cases_equivalent(self):
        result = validation.run()
        assert result.all_equivalent
        assert "validation" in result.format().lower()
