"""Fig 4 bench — depth savings from interaction distance."""

from repro.exec import get_cache
from repro.experiments import fig4_depth

MIDS = (2.0, 3.0, 5.0, 13.0)


def run_once():
    get_cache().metrics_memo.clear()
    return fig4_depth.run(
        mids=MIDS, max_size=40, size_step=12, qft_line_sizes=(10, 26),
    )


def test_fig4_depth_savings(benchmark, record_figure):
    result = benchmark.pedantic(run_once, rounds=1, iterations=1)
    record_figure("fig4", result.format())
    # Depth drops with MID for the serial benchmarks...
    assert result.saving("bv", 3.0) > 0.0
    assert result.saving("cuccaro", 3.0) > 0.0
    # ...and the QFT-adder line flattens/rebounds at long range (the
    # restriction-zone effect): the drop from MID 5 to 13 is small.
    for size, series in result.qft_series.items():
        depth_by_mid = dict((m, d) for m, d in series)
        assert depth_by_mid[13.0] >= 0.9 * depth_by_mid[5.0]
