"""Fig 8 bench — largest runnable program size vs two-qubit error."""

from repro.exec import get_cache
from repro.experiments import fig8_program_size


def run_once():
    get_cache().metrics_memo.clear()
    return fig8_program_size.run(max_size=50, size_step=10, error_points=11)


def test_fig8_largest_runnable_size(benchmark, record_figure):
    result = benchmark.pedantic(run_once, rounds=1, iterations=1)
    record_figure("fig8", result.format())
    for name, (na_curve, sc_curve) in result.curves.items():
        # NA never runs a smaller program than SC at the same error...
        for (_, na_size), (_, sc_size) in zip(na_curve, sc_curve):
            assert na_size >= sc_size, name
        # ...and strictly larger somewhere in the sweep.
        assert result.advantage_points(name) >= 1, name
        # Size shrinks as error grows.
        sizes = [s for _, s in na_curve]
        assert sizes == sorted(sizes, reverse=True)
