"""Integration tests for the shot runner and tolerance sweeps (§VI)."""

import pytest

from repro.core import CompilerConfig
from repro.hardware import LossModel, NoiseModel, TimingModel, Topology
from repro.loss import (
    ShotRunner,
    make_strategy,
    max_loss_tolerance,
    render_timeline,
    totals_by_kind,
)
from repro.loss.timeline import TimelineEvent
from repro.workloads import build_circuit

NOISE = NoiseModel.neutral_atom()
LOSSLESS = LossModel(vacuum_loss=0.0, measurement_loss=0.0)


def runner_for(strategy_name, mid=4.0, loss_model=None, rng=0, side=10,
               size=20):
    return ShotRunner(
        make_strategy(strategy_name, noise=NOISE),
        build_circuit("cnu", size),
        Topology.square(side, mid),
        config=CompilerConfig(max_interaction_distance=mid),
        noise=NOISE,
        loss_model=loss_model or LossModel.lossless_readout(),
        timing=TimingModel.paper_defaults(),
        rng=rng,
    )


class TestTimelineEvents:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            TimelineEvent("nonsense", 0.0, 1.0)
        with pytest.raises(ValueError):
            TimelineEvent("run", -1.0, 1.0)

    def test_totals(self):
        events = [TimelineEvent("run", 0.0, 1.0),
                  TimelineEvent("reload", 1.0, 0.3),
                  TimelineEvent("run", 1.3, 1.0)]
        totals = totals_by_kind(events)
        assert totals["run"] == pytest.approx(2.0)
        assert totals["reload"] == pytest.approx(0.3)

    def test_render_nonempty(self):
        events = [TimelineEvent("compile", 0.0, 0.1),
                  TimelineEvent("run", 0.1, 0.5)]
        text = render_timeline(events, width=20)
        assert "C" in text and "r" in text

    def test_render_empty(self):
        assert "empty" in render_timeline([])


class TestShotRunner:
    def test_no_loss_all_shots_succeed(self):
        runner = runner_for("virtual remapping", loss_model=LOSSLESS)
        result = runner.run(max_shots=20)
        assert result.shots_attempted == 20
        assert result.shots_successful == 20
        assert result.reload_count == 0
        assert result.interfering_losses == 0

    def test_certain_loss_no_shot_succeeds(self):
        lossy = LossModel(vacuum_loss=0.9, measurement_loss=0.9)
        runner = runner_for("always reload", loss_model=lossy, rng=3)
        result = runner.run(max_shots=10)
        assert result.shots_successful < result.shots_attempted
        assert result.reload_count > 0

    def test_target_successful_stops_early(self):
        runner = runner_for("virtual remapping", loss_model=LOSSLESS)
        result = runner.run(max_shots=100, target_successful=5)
        assert result.shots_successful == 5
        assert result.shots_attempted == 5

    def test_timeline_accounts_every_second(self):
        runner = runner_for("c. small+reroute", rng=5)
        result = runner.run(max_shots=40)
        by_kind = result.time_by_kind()
        assert sum(by_kind.values()) == pytest.approx(result.total_time)
        # Fluorescence is charged once per shot.
        assert by_kind["fluorescence"] == pytest.approx(
            result.shots_attempted * 6e-3
        )

    def test_reload_restores_full_array(self):
        runner = runner_for("always reload", rng=2)
        result = runner.run(max_shots=60)
        if result.reload_count:
            assert runner.topology.num_active + len(
                # Whatever was lost after the last reload is still gone;
                # everything before it was restored.
                runner.topology.lost_sites
            ) == runner.topology.grid.num_sites

    def test_adaptive_beats_always_reload(self):
        reload_result = runner_for("always reload", rng=11).run(max_shots=150)
        remap_result = runner_for("c. small+reroute", rng=11).run(max_shots=150)
        assert remap_result.reload_count < reload_result.reload_count
        assert remap_result.overhead_time < reload_result.overhead_time

    def test_expected_successes_bounded(self):
        result = runner_for("reroute", rng=4).run(max_shots=30)
        assert 0.0 <= result.expected_successes <= result.shots_successful

    def test_shots_between_reloads_tracks_segments(self):
        result = runner_for("virtual remapping", rng=9).run(max_shots=80)
        assert sum(result.shots_between_reloads) == result.shots_successful
        assert len(result.shots_between_reloads) == result.reload_count + 1

    def test_improvement_factor_extends_runs(self):
        base = runner_for("c. small+reroute", rng=21).run(max_shots=200)
        better = runner_for(
            "c. small+reroute",
            loss_model=LossModel.lossless_readout(improvement_factor=10.0),
            rng=21,
        ).run(max_shots=200)
        assert better.reload_count <= base.reload_count

    def test_recompile_time_override(self):
        timing = TimingModel(recompile_time=2.0)
        runner = ShotRunner(
            make_strategy("recompile", noise=NOISE),
            build_circuit("cnu", 12),
            Topology.square(6, 3.0),
            config=CompilerConfig(max_interaction_distance=3.0),
            noise=NOISE,
            loss_model=LossModel(vacuum_loss=0.2, measurement_loss=0.2),
            timing=timing,
            rng=1,
        )
        result = runner.run(max_shots=10)
        by_kind = result.time_by_kind()
        if result.interfering_losses:
            # Each recompile charged at the overridden 2 s.
            assert by_kind["compile"] >= 2.0


class TestTolerance:
    def test_recompile_tolerates_most(self):
        circuit = build_circuit("cnu", 20)
        results = {}
        for name in ("virtual remapping", "recompile"):
            results[name] = max_loss_tolerance(
                make_strategy(name, noise=NOISE), circuit, 8, 3.0,
                trials=2, rng=0,
            )
        assert (results["recompile"].mean_fraction
                > results["virtual remapping"].mean_fraction)

    def test_tolerance_grows_with_mid(self):
        circuit = build_circuit("cnu", 20)
        fractions = []
        for mid in (2.0, 4.0):
            result = max_loss_tolerance(
                make_strategy("virtual remapping"), circuit, 8, mid,
                trials=3, rng=1,
            )
            fractions.append(result.mean_fraction)
        assert fractions[1] > fractions[0]

    def test_result_statistics(self):
        circuit = build_circuit("cnu", 12)
        result = max_loss_tolerance(
            make_strategy("virtual remapping"), circuit, 6, 3.0,
            trials=4, rng=2,
        )
        assert len(result.losses_sustained) == 4
        assert 0.0 <= result.mean_fraction <= 1.0
        assert result.std_fraction >= 0.0
