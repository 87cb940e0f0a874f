"""Fig 3 — gate-count savings from interaction distance.

Left panel: per-benchmark mean % reduction in post-compilation gate count
at MID in {2, 3, 4, 5, 8, 13}, relative to the MID-1 baseline, averaged
over program sizes.  Right panel: the BV gate-count-vs-MID curves for a
range of program sizes.

Everything is compiled to 1- and 2-qubit gates, exactly as the paper's
§IV-A experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.architectures import compiled_metrics, metrics_grid_map
from repro.api.registry import register_experiment
from repro.api.results import ExperimentResult
from repro.experiments.common import (
    SavingsRow,
    all_benchmarks,
    default_sizes,
    mids_or_default,
    na_arch_for_mid,
    savings_over_baseline,
)
from repro.utils.textplot import format_series, format_table, percent


@dataclass
class Fig3Result(ExperimentResult):
    """Bar rows (savings per benchmark x MID) plus the BV line series."""

    bars: List[SavingsRow] = field(default_factory=list)
    #: BV gate count by size: {size: [(mid, gate_count), ...]}.
    bv_series: Dict[int, List[Tuple[float, int]]] = field(default_factory=dict)

    def format(self) -> str:
        lines = ["Fig 3 — Gate Count Savings from Interaction Distance",
                 "(reduction vs MID=1 baseline, averaged over sizes)", ""]
        rows = [
            (r.benchmark, f"{r.mid:g}", percent(r.mean_saving),
             percent(r.std_saving))
            for r in self.bars
        ]
        lines.append(format_table(
            ["benchmark", "MID", "mean saving", "std"], rows))
        if self.bv_series:
            lines.append("")
            lines.append("BV post-compilation gate count vs MID:")
            for size in sorted(self.bv_series):
                xs = [m for m, _ in self.bv_series[size]]
                ys = [g for _, g in self.bv_series[size]]
                lines.append(format_series(f"  bv[{size}]", xs, ys))
        return "\n".join(lines)

    def saving(self, benchmark: str, mid: float) -> float:
        for row in self.bars:
            if row.benchmark == benchmark and abs(row.mid - mid) < 1e-9:
                return row.mean_saving
        raise KeyError((benchmark, mid))


def run(
    benchmarks: Optional[Sequence[str]] = None,
    mids: Optional[Sequence[float]] = None,
    max_size: int = 100,
    size_step: int = 10,
    bv_line_sizes: Optional[Sequence[int]] = None,
) -> Fig3Result:
    """Regenerate Fig 3.

    ``max_size``/``size_step`` control the size grid (the paper uses sizes
    up to 100); pass smaller values for a quick run.
    """
    benchmarks = list(benchmarks) if benchmarks is not None else all_benchmarks()
    mids = mids_or_default(mids)
    result = Fig3Result()

    line_sizes = (
        list(bv_line_sizes)
        if bv_line_sizes is not None
        else [s for s in (15, 27, 51, 75, 99) if s <= max_size]
    )
    line_mids = [1.0] + mids
    # One prewarm for the whole figure (bars for every benchmark + the
    # BV line series): a single pool spin-up instead of one per
    # benchmark inside savings_over_baseline.
    savings_archs = [na_arch_for_mid(mid) for mid in [1.0] + mids]
    metrics_grid_map(
        [(benchmark, size, arch, 0)
         for benchmark in benchmarks
         for size in default_sizes(benchmark, max_size, size_step)
         for arch in savings_archs]
        + [("bv", size, na_arch_for_mid(mid), 0)
           for size in line_sizes for mid in line_mids]
    )

    for benchmark in benchmarks:
        sizes = default_sizes(benchmark, max_size, size_step)
        result.bars.extend(
            savings_over_baseline(benchmark, sizes, mids, metric="gate_count")
        )
    for size in line_sizes:
        series = []
        for mid in line_mids:
            metrics = compiled_metrics("bv", size, na_arch_for_mid(mid))
            series.append((mid, metrics.gate_count))
        result.bv_series[size] = series
    return result


SPEC = register_experiment(
    name="fig3",
    runner=run,
    result_type=Fig3Result,
    quick=dict(max_size=30, size_step=10, mids=(2.0, 3.0, 5.0),
               bv_line_sizes=(15, 27)),
)
