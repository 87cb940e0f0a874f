"""Fig 6 bench — native Toffoli execution vs decomposition."""

from repro.exec import get_cache
from repro.experiments import fig6_multiqubit


def run_once():
    get_cache().metrics_memo.clear()
    return fig6_multiqubit.run(sizes=(20, 40, 60), mids=(2.0, 3.0, 5.0))


def test_fig6_native_multiqubit(benchmark, record_figure):
    result = benchmark.pedantic(run_once, rounds=1, iterations=1)
    record_figure("fig6", result.format())
    for point in result.points:
        if point.mid == 1.0:
            # Toffolis are impossible at distance 1: both modes decompose.
            assert point.native_gates == point.decomposed_gates
        else:
            # Native execution wins in gates and depth — the paper reports
            # "huge reductions in both depth and gate count".
            assert point.native_gates < point.decomposed_gates
            assert point.native_depth < point.decomposed_depth
    # The headline ~6x gate factor for Toffoli-heavy code is visible.
    cnu_points = [p for p in result.points
                  if p.benchmark == "cnu" and p.mid >= 2.0]
    assert max(p.gate_ratio for p in cnu_points) >= 4.0
