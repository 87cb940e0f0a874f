"""Fig 7 bench — program success rate vs two-qubit error, NA vs SC."""

from repro.exec import get_cache
from repro.experiments import fig7_success


def run_once():
    get_cache().metrics_memo.clear()
    return fig7_success.run(program_size=30, error_points=13)


def test_fig7_success_comparison(record_figure):
    result = run_once()
    record_figure("fig7", result.format())
    # NA diverges from the all-noise outcome at a higher physical error
    # than SC for every benchmark (the paper's Fig 7 claim).
    for name, cmp_result in result.comparisons.items():
        na_div, sc_div = cmp_result.divergence_error()
        assert na_div >= sc_div, name
        # Program error decreases monotonically as gates improve.
        na_errors = [e for _, e in cmp_result.na_curve]
        assert na_errors == sorted(na_errors)
