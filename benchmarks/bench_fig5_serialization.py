"""Fig 5 bench — depth increase from restriction-zone serialization."""

from repro.exec import get_cache
from repro.experiments import fig5_serialization


def run_once():
    get_cache().metrics_memo.clear()
    return fig5_serialization.run(
        mids=(2.0, 3.0, 5.0), max_size=30, size_step=10,
        qaoa_line_sizes=(20, 30),
    )


def test_fig5_serialization(record_figure):
    result = run_once()
    record_figure("fig5", result.format())
    # Zones only ever add depth, and the inherently parallel benchmarks
    # (QFT-adder, QAOA, CNU) pay more than the serial ones (BV, Cuccaro).
    for row in result.bars:
        assert row.mean_increase >= -1e-9
    parallel = max(result.increase(b, 3.0) for b in ("qft-adder", "qaoa", "cnu"))
    serial = max(result.increase(b, 3.0) for b in ("bv", "cuccaro"))
    assert parallel >= serial
    # The zoned QAOA line never dips below the ideal line.
    for series in result.qaoa_series.values():
        for _, zoned, ideal in series:
            assert zoned >= ideal
