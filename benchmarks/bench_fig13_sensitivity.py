"""Fig 13 bench — sensitivity of shots-before-reload to the loss rate."""

from repro.experiments import fig13_sensitivity


def run_once():
    return fig13_sensitivity.run(
        mids=(3.0, 4.0, 5.0), factors=(0.3, 1.0, 3.0, 10.0, 30.0),
        shots_per_run=400, program_size=30, rng=0,
    )


def test_fig13_loss_rate_sensitivity(record_figure):
    result = run_once()
    record_figure("fig13", result.format())
    for mid in (3.0, 4.0, 5.0):
        series = result.series(mid)
        # More reliable atoms -> more successful shots before a reload;
        # the improvement is roughly proportional (paper: 10x -> ~10x).
        assert series[-1][1] > series[0][1]
        factor_gain = (series[-1][1] + 1) / (series[1][1] + 1)
        assert factor_gain > 3.0
