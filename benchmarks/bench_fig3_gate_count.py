"""Fig 3 bench — gate-count savings from interaction distance.

Times the full compile sweep and regenerates the figure's bar rows (mean
% gate-count savings per benchmark per MID vs the MID-1 baseline) and the
BV line series.
"""

from repro.exec import get_cache
from repro.experiments import fig3_gate_count

MIDS = (2.0, 3.0, 5.0, 13.0)
MAX_SIZE = 40
STEP = 12


def run_once():
    get_cache().metrics_memo.clear()
    return fig3_gate_count.run(
        mids=MIDS, max_size=MAX_SIZE, size_step=STEP,
        bv_line_sizes=(15, 27, 39),
    )


def test_fig3_gate_count_savings(record_figure):
    result = run_once()
    record_figure("fig3", result.format())
    # The paper's claims: savings are positive at MID >= 2 and most of the
    # benefit arrives in the first few increments (5 -> 13 adds little).
    for bench in ("bv", "cuccaro", "qft-adder", "qaoa"):
        assert result.saving(bench, 2.0) > 0.0
        late_gain = result.saving(bench, 13.0) - result.saving(bench, 5.0)
        early_gain = result.saving(bench, 3.0) - 0.0
        assert late_gain <= early_gain + 0.02
