"""Fig 11 bench — shot success erosion with accumulating holes."""

from repro.experiments import fig11_shot_success


def run_once():
    return fig11_shot_success.run(
        benchmarks=("cnu", "cuccaro"),
        strategies=("reroute", "c. small+reroute", "recompile"),
        mids=(2.0, 3.0, 5.0), max_holes=15, program_size=30,
        trials=2, rng=0,
    )


def test_fig11_shot_success_drop(record_figure):
    result = run_once()
    record_figure("fig11", result.format())
    # Calibration put the clean program near 0.6 success.
    for bench in ("cnu", "cuccaro"):
        trace = result.trace(bench, "recompile", 3.0)
        assert abs(trace[0] - 0.6) < 0.05
    # Reroute fixups only ever erode success relative to the start.
    for (bench, strategy, mid), trace in result.traces.items():
        if strategy == "reroute":
            assert trace[-1] <= trace[0] + 1e-9
