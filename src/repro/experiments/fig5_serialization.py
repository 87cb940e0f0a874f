"""Fig 5 — depth increase due to restriction-zone serialization.

Compile each benchmark twice at the *same* MID: once with the real
``f(d) = d/2`` zones and once with zones disabled (the idealized
architecture allowing any disjoint gate sets in parallel).  The two
compilations insert the same communication; the depth gap isolates the
serialization cost.  Parallel benchmarks (QAOA, CNU, QFT-Adder) show the
largest gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.architectures import compiled_metrics, metrics_grid_map
from repro.api.registry import register_experiment
from repro.api.results import ExperimentResult
from repro.api.serialize import serializable
from repro.experiments.common import (
    all_benchmarks,
    default_sizes,
    mean,
    mids_or_default,
    na_arch_for_mid,
    std,
)
from repro.utils.textplot import format_series, format_table, percent


@serializable
@dataclass
class SerializationRow:
    benchmark: str
    mid: float
    mean_increase: float
    std_increase: float


@dataclass
class Fig5Result(ExperimentResult):
    bars: List[SerializationRow] = field(default_factory=list)
    #: QAOA depth by size: {size: [(mid, depth_zones, depth_ideal), ...]}.
    qaoa_series: Dict[int, List[Tuple[float, int, int]]] = field(
        default_factory=dict
    )

    def format(self) -> str:
        lines = ["Fig 5 — Depth Increase due to Gate Serialization",
                 "(restriction zones f(d)=d/2 vs no-zone ideal, same MID)", ""]
        rows = [
            (r.benchmark, f"{r.mid:g}", percent(r.mean_increase),
             percent(r.std_increase))
            for r in self.bars
        ]
        lines.append(format_table(
            ["benchmark", "MID", "mean depth increase", "std"], rows))
        if self.qaoa_series:
            lines.append("")
            lines.append("QAOA depth vs MID (zones / ideal):")
            for size in sorted(self.qaoa_series):
                xs = [m for m, _, _ in self.qaoa_series[size]]
                zoned = [z for _, z, _ in self.qaoa_series[size]]
                ideal = [i for _, _, i in self.qaoa_series[size]]
                lines.append(format_series(f"  qaoa[{size}] zones", xs, zoned))
                lines.append(format_series(f"  qaoa[{size}] ideal", xs, ideal))
        return "\n".join(lines)

    def increase(self, benchmark: str, mid: float) -> float:
        for row in self.bars:
            if row.benchmark == benchmark and abs(row.mid - mid) < 1e-9:
                return row.mean_increase
        raise KeyError((benchmark, mid))


def run(
    benchmarks: Optional[Sequence[str]] = None,
    mids: Optional[Sequence[float]] = None,
    max_size: int = 100,
    size_step: int = 10,
    qaoa_line_sizes: Optional[Sequence[int]] = None,
) -> Fig5Result:
    """Regenerate Fig 5."""
    benchmarks = list(benchmarks) if benchmarks is not None else all_benchmarks()
    mids = mids_or_default(mids)
    result = Fig5Result()

    line_sizes = (
        list(qaoa_line_sizes)
        if qaoa_line_sizes is not None
        else [s for s in (20, 30, 40, 50) if s <= max_size]
    )
    line_mids = [1.0] + mids
    points = []
    for benchmark in benchmarks:
        for size in default_sizes(benchmark, max_size, size_step):
            for mid in mids:
                for radius in ("half", "none"):
                    points.append((benchmark, size,
                                   na_arch_for_mid(mid, restriction_radius=radius), 0))
    for size in line_sizes:
        for mid in line_mids:
            for radius in ("half", "none"):
                points.append(("qaoa", size,
                               na_arch_for_mid(mid, restriction_radius=radius), 0))
    metrics_grid_map(points)

    for benchmark in benchmarks:
        sizes = default_sizes(benchmark, max_size, size_step)
        for mid in mids:
            zoned_arch = na_arch_for_mid(mid, restriction_radius="half")
            ideal_arch = na_arch_for_mid(mid, restriction_radius="none")
            increases = []
            for size in sizes:
                zoned = compiled_metrics(benchmark, size, zoned_arch).depth
                ideal = compiled_metrics(benchmark, size, ideal_arch).depth
                if ideal > 0:
                    increases.append(zoned / ideal - 1.0)
            result.bars.append(
                SerializationRow(
                    benchmark=benchmark,
                    mid=mid,
                    mean_increase=mean(increases),
                    std_increase=std(increases),
                )
            )

    for size in line_sizes:
        series = []
        for mid in line_mids:
            zoned = compiled_metrics(
                "qaoa", size, na_arch_for_mid(mid, restriction_radius="half")
            ).depth
            ideal = compiled_metrics(
                "qaoa", size, na_arch_for_mid(mid, restriction_radius="none")
            ).depth
            series.append((mid, zoned, ideal))
        result.qaoa_series[size] = series
    return result


SPEC = register_experiment(
    name="fig5",
    runner=run,
    result_type=Fig5Result,
    quick=dict(max_size=24, size_step=8, mids=(2.0, 3.0),
               qaoa_line_sizes=(16,)),
)
