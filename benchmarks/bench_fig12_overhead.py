"""Fig 12 bench — wall-clock overhead of 500 shots per strategy."""

from repro.experiments import fig12_overhead


def run_once():
    return fig12_overhead.run(
        mids=(2.0, 3.0, 4.0, 5.0), shots=500, program_size=30, rng=0,
    )


def test_fig12_overhead_500_shots(record_figure):
    result = run_once()
    record_figure("fig12", result.format())
    for mid in (2.0, 3.0, 4.0, 5.0):
        reload_overhead = result.overhead("always reload", mid)
        # Every adaptive strategy beats always-reload...
        for name in ("virtual remapping", "reroute"):
            assert result.overhead(name, mid) <= reload_overhead
        # ...and reload time is the dominant overhead component.
        run_result = result.runs[("always reload", mid)]
        kinds = run_result.time_by_kind()
        assert kinds["reload"] >= max(kinds["fluorescence"], kinds["fixup"])
