"""Shared scaffolding for the per-figure experiment drivers.

Every figure module exposes ``run(...) -> <Fig>Result`` where the result
renders the paper's rows/series via ``format()``.  Size grids default to
the paper's full sweep but accept reduced grids, so the quick presets
and the paper-claim tests regenerate each figure in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.architectures import (
    PAPER_MIDS,
    Architecture,
    compiled_metrics,
    neutral_atom_arch,
    metrics_grid_map,
    savings_points,
)
from repro.api.serialize import serializable
from repro.analysis.success import valid_sizes
from repro.workloads.registry import BENCHMARK_ORDER

#: Default per-benchmark size grid for the compilation figures (3-6):
#: "sizes up to 100" sampled coarsely enough to finish in minutes.
def default_sizes(benchmark: str, max_size: int = 100, step: int = 10) -> List[int]:
    return valid_sizes(benchmark, max_size, step)


def na_arch_for_mid(
    mid: float,
    native_max_arity: int = 2,
    restriction_radius: str = "half",
) -> Architecture:
    """NA architecture at one MID, on the default grid.

    Figs 3-5 compile everything to 1-2 qubit gates ("all programs are
    compiled to 1 and 2 qubit gates only"), hence the default arity 2.
    """
    return neutral_atom_arch(
        mid=mid,
        native_max_arity=native_max_arity,
        restriction_radius=restriction_radius,
    )


def mean(values: Sequence[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def std(values: Sequence[float]) -> float:
    values = list(values)
    if len(values) < 2:
        return 0.0
    center = mean(values)
    return (sum((v - center) ** 2 for v in values) / (len(values) - 1)) ** 0.5


@serializable
@dataclass
class SavingsRow:
    """One bar of a Fig 3/4-style chart: mean % savings vs the MID-1 baseline."""

    benchmark: str
    mid: float
    mean_saving: float
    std_saving: float


def savings_over_baseline(
    benchmark: str,
    sizes: Sequence[int],
    mids: Sequence[float],
    metric: str,
) -> List[SavingsRow]:
    """Percent reduction of ``metric`` ('gate_count' or 'depth') at each MID
    relative to the MID-1 compilation of the same size, averaged over sizes,
    on :func:`na_arch_for_mid`'s default architectures."""
    rows = []
    baseline_arch = na_arch_for_mid(1.0)
    sweep_archs = [na_arch_for_mid(mid) for mid in mids]
    # Fan the whole (size x MID) compile grid out over the sweep engine;
    # the serial aggregation below then runs entirely against the cache.
    metrics_grid_map(savings_points(benchmark, sizes,
                                    [baseline_arch] + sweep_archs))
    for mid, arch in zip(mids, sweep_archs):
        savings = []
        for size in sizes:
            base = getattr(compiled_metrics(benchmark, size, baseline_arch), metric)
            value = getattr(compiled_metrics(benchmark, size, arch), metric)
            if base > 0:
                savings.append(1.0 - value / base)
        rows.append(
            SavingsRow(
                benchmark=benchmark,
                mid=mid,
                mean_saving=mean(savings),
                std_saving=std(savings),
            )
        )
    return rows


def all_benchmarks() -> List[str]:
    return list(BENCHMARK_ORDER)


def mids_or_default(mids: Optional[Sequence[float]]) -> List[float]:
    return list(mids) if mids is not None else list(PAPER_MIDS)
