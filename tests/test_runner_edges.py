"""Edge-case regression tests for the shot runner (repro.loss.runner)."""

import pytest

from repro.core.config import CompilerConfig
from repro.hardware.loss import LossModel
from repro.hardware.topology import Topology
from repro.loss.runner import RunResult, ShotRunner
from repro.loss.strategies import make_strategy
from repro.workloads.registry import build_circuit

GRID_SIDE = 5
MID = 3.0


class ScriptedLoss:
    """Loss model stub: loses exactly the scripted sites, shot by shot."""

    def __init__(self, per_shot_losses):
        self.per_shot_losses = list(per_shot_losses)
        self.shot = 0

    def sample_shot_losses(self, all_sites, measured_sites, rng=None):
        losses = (self.per_shot_losses[self.shot]
                  if self.shot < len(self.per_shot_losses) else set())
        self.shot += 1
        return set(losses)


def _runner(strategy_name="always reload", loss_model=None):
    return ShotRunner(
        make_strategy(strategy_name),
        build_circuit("bv", 6),
        Topology.square(GRID_SIDE, MID),
        config=CompilerConfig(max_interaction_distance=MID),
        loss_model=loss_model or LossModel(vacuum_loss=0.0,
                                           measurement_loss=0.0),
        rng=0,
    )


# -- overhead_time with no run events (satellite regression) -----------------------


def test_overhead_time_without_run_events():
    """max_shots=0 leaves only the compile event in the timeline;
    overhead_time must not raise and equals the total."""
    result = _runner().run(max_shots=0)
    assert result.shots_attempted == 0
    assert result.overhead_time == pytest.approx(result.total_time)
    assert all(e.kind != "run" for e in result.timeline)


def test_overhead_time_empty_timeline():
    result = _runner().run(max_shots=0, include_compile_event=False)
    assert result.timeline == []
    assert result.overhead_time == 0.0
    assert result.total_time == 0.0


# -- target_successful = 0 ---------------------------------------------------------


def test_target_successful_zero_attempts_no_shots():
    result = _runner().run(max_shots=50, target_successful=0)
    assert result.shots_attempted == 0
    assert result.shots_successful == 0
    assert result.reload_count == 0
    assert result.shots_between_reloads == [0]
    assert result.mean_shots_between_reloads == 0.0


# -- reload on the very first shot -------------------------------------------------


def test_reload_on_first_shot():
    runner = _runner()
    used = runner.strategy.begin(
        runner.circuit, runner.topology.copy(), runner.config
    ).used_sites()
    victim = min(used)
    runner.loss_model = ScriptedLoss([{victim}])

    result = runner.run(max_shots=3)
    assert result.shots_attempted == 3
    # Shot 1 lost a program atom: not successful, triggers a reload.
    assert result.shots_successful == 2
    assert result.reload_count == 1
    assert result.interfering_losses == 1
    assert result.shots_between_reloads == [0, 2]
    # The reload refilled the array for the following shots.
    assert runner.topology.lost_sites == frozenset()


# -- several losses in one shot, first one already reloads -------------------------


class CountingReload:
    """Wrap a strategy, counting on_loss calls (delegates everything)."""

    def __init__(self, inner):
        self.inner = inner
        self.on_loss_calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def on_loss(self, site):
        self.on_loss_calls += 1
        return self.inner.on_loss(site)


def test_first_loss_reload_short_circuits_remaining_losses():
    runner = _runner()
    used = runner.strategy.begin(
        runner.circuit, runner.topology.copy(), runner.config
    ).used_sites()
    first, second = sorted(used)[0], sorted(used)[1]
    runner.loss_model = ScriptedLoss([{first, second}])
    runner.strategy = CountingReload(runner.strategy)

    result = runner.run(max_shots=1)
    # Always Reload gives up on the first interfering loss; the second
    # lost atom of the same shot must not reach the strategy (the reload
    # already restored it).
    assert runner.strategy.on_loss_calls == 1
    assert result.reload_count == 1
    assert result.interfering_losses + result.spare_losses == 1
    assert runner.topology.lost_sites == frozenset()


# -- mean_shots_between_reloads open-segment semantics (satellite regression) ------


def test_mean_shots_single_open_segment_is_whole_run():
    """No reloads: the one (open) segment IS the run, so the mean equals
    shots_successful — the open tail is only excluded when a reload closed
    at least one segment before it."""
    result = RunResult(
        strategy_name="x",
        shots_successful=7,
        reload_count=0,
        shots_between_reloads=[7],
    )
    assert result.mean_shots_between_reloads == 7.0


def test_mean_shots_multi_segment_drops_open_tail():
    """With reloads, only the closed segments count: the trailing open
    segment was cut short by the shot budget, not by a reload."""
    result = RunResult(
        strategy_name="x",
        shots_successful=9,
        reload_count=2,
        shots_between_reloads=[4, 2, 3],  # 3 is the open tail
    )
    assert result.mean_shots_between_reloads == pytest.approx(3.0)


def test_mean_shots_no_segments_recorded():
    result = RunResult(strategy_name="x", shots_successful=5)
    assert result.mean_shots_between_reloads == 5.0


def test_mean_shots_matches_runner_end_to_end():
    runner = _runner()
    used = runner.strategy.begin(
        runner.circuit, runner.topology.copy(), runner.config
    ).used_sites()
    victim = min(used)
    # Shot 1 succeeds, shot 2 loses a program atom and reloads (closing a
    # segment of 1 success); shots 3-5 are clean and form the open tail.
    runner.loss_model = ScriptedLoss([set(), {victim}, set(), set(), set()])
    result = runner.run(max_shots=5)
    assert result.reload_count == 1
    assert result.shots_between_reloads == [1, 3]
    assert result.mean_shots_between_reloads == pytest.approx(1.0)


def test_spare_losses_do_not_invalidate_shot():
    runner = _runner()
    used = runner.strategy.begin(
        runner.circuit, runner.topology.copy(), runner.config
    ).used_sites()
    spare = min(set(range(GRID_SIDE * GRID_SIDE)) - used)
    runner.loss_model = ScriptedLoss([{spare}])

    result = runner.run(max_shots=1)
    assert result.shots_successful == 1
    assert result.spare_losses == 1
    assert result.interfering_losses == 0
    assert result.reload_count == 0
