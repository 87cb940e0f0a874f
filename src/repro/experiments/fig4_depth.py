"""Fig 4 — depth savings from interaction distance.

Left panel: per-benchmark mean % reduction in post-compilation depth vs
the MID-1 baseline.  Right panel: QFT-Adder depth vs MID for several
sizes — the benchmark the paper highlights because its high parallelism
makes restriction-zone serialization visible (some benefit is lost at
large MIDs).
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
class Fig4Result(ExperimentResult):
    bars: List[SavingsRow] = field(default_factory=list)
    #: QFT-Adder depth by size: {size: [(mid, depth), ...]}.
    qft_series: Dict[int, List[Tuple[float, int]]] = field(default_factory=dict)

    def format(self) -> str:
        lines = ["Fig 4 — Depth Savings from Interaction Distance",
                 "(reduction vs MID=1 baseline, averaged over sizes)", ""]
        rows = [
            (r.benchmark, f"{r.mid:g}", percent(r.mean_saving),
             percent(r.std_saving))
            for r in self.bars
        ]
        lines.append(format_table(
            ["benchmark", "MID", "mean saving", "std"], rows))
        if self.qft_series:
            lines.append("")
            lines.append("QFT-Adder post-compilation depth vs MID:")
            for size in sorted(self.qft_series):
                xs = [m for m, _ in self.qft_series[size]]
                ys = [d for _, d in self.qft_series[size]]
                lines.append(format_series(f"  qft-adder[{size}]", xs, ys))
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
    qft_line_sizes: Optional[Sequence[int]] = None,
) -> Fig4Result:
    """Regenerate Fig 4."""
    benchmarks = list(benchmarks) if benchmarks is not None else all_benchmarks()
    mids = mids_or_default(mids)
    result = Fig4Result()

    line_sizes = (
        list(qft_line_sizes)
        if qft_line_sizes is not None
        else [s for s in (10, 26, 42, 66) if s <= max_size]
    )
    line_mids = [1.0] + mids
    # One prewarm for the whole figure, not one pool per benchmark.
    savings_archs = [na_arch_for_mid(mid) for mid in [1.0] + mids]
    metrics_grid_map(
        [(benchmark, size, arch, 0)
         for benchmark in benchmarks
         for size in default_sizes(benchmark, max_size, size_step)
         for arch in savings_archs]
        + [("qft-adder", size, na_arch_for_mid(mid), 0)
           for size in line_sizes for mid in line_mids]
    )

    for benchmark in benchmarks:
        sizes = default_sizes(benchmark, max_size, size_step)
        result.bars.extend(
            savings_over_baseline(benchmark, sizes, mids, metric="depth")
        )
    for size in line_sizes:
        series = []
        for mid in line_mids:
            metrics = compiled_metrics("qft-adder", size, na_arch_for_mid(mid))
            series.append((mid, metrics.depth))
        result.qft_series[size] = series
    return result


SPEC = register_experiment(
    name="fig4",
    runner=run,
    result_type=Fig4Result,
    quick=dict(max_size=30, size_step=10, mids=(2.0, 3.0, 5.0),
               qft_line_sizes=(10, 26)),
)
