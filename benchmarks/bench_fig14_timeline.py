"""Fig 14 bench — timeline of 20 successful shots."""

from repro.experiments import fig14_timeline


def run_once():
    return fig14_timeline.run(target_shots=20)


def test_fig14_execution_timeline(record_figure):
    result = run_once()
    record_figure("fig14", result.format())
    run_result = result.run_result
    assert run_result.shots_successful == 20
    kinds = run_result.time_by_kind()
    # Reload + fluorescence dominate the trace (the paper's conclusion:
    # "a majority of the overhead time is contributed by the reload time
    # and fluorescence").
    assert (kinds["reload"] + kinds["fluorescence"]
            > 0.8 * run_result.total_time)
    # Circuit execution itself is a negligible share.
    assert kinds["run"] < 0.05 * run_result.total_time
