"""Fig 8 — largest runnable program size vs two-qubit gate error.

For each physical error rate, the largest benchmark size whose §V success
estimate clears 2/3, for NA (MID 3, native multiqubit) and the SC
baseline.  Equivalently: the physical error you need before a program of
a given size becomes runnable — NA needs *worse* (easier) error rates
than SC for the same size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.architectures import neutral_atom_arch, superconducting_arch
from repro.analysis.success import (
    error_sweep,
    largest_runnable_from,
    size_ladder_grid_map,
    valid_sizes,
)
from repro.api.registry import register_experiment
from repro.api.results import ExperimentResult
from repro.experiments.common import all_benchmarks
from repro.utils.textplot import format_series

NA_MID = 3.0


@dataclass
class Fig8Result(ExperimentResult):
    #: benchmark -> (na_curve, sc_curve), each [(error, largest size)].
    curves: Dict[str, Tuple[List[Tuple[float, int]], List[Tuple[float, int]]]] = (
        field(default_factory=dict)
    )

    def format(self) -> str:
        lines = ["Fig 8 — Largest Runnable Size (success >= 2/3) vs 2q error",
                 f"(NA MID {NA_MID:g} vs SC MID 1)", ""]
        for name, (na_curve, sc_curve) in self.curves.items():
            xs = [e for e, _ in na_curve]
            lines.append(format_series(
                f"  {name} NA ", xs, [s for _, s in na_curve]))
            lines.append(format_series(
                f"  {name} SC ", xs, [s for _, s in sc_curve]))
            lines.append("")
        return "\n".join(lines)

    def advantage_points(self, benchmark: str) -> int:
        """At how many swept error rates NA runs a strictly larger program."""
        na_curve, sc_curve = self.curves[benchmark]
        return sum(
            1 for (_, na_size), (_, sc_size) in zip(na_curve, sc_curve)
            if na_size > sc_size
        )


def run(
    benchmarks: Optional[Sequence[str]] = None,
    max_size: int = 100,
    size_step: int = 10,
    na_mid: float = NA_MID,
    error_points: int = 13,
) -> Fig8Result:
    """Regenerate Fig 8.

    The full paper grid (sizes to 100 in fine steps) takes minutes; the
    defaults use a coarser size grid with the same shape.  Every
    (benchmark x architecture x size) compile fans out as ONE task grid
    over the sweep engine — a single pool spin-up — and thresholding
    per error rate is then serial and cheap.
    """
    benchmarks = list(benchmarks) if benchmarks is not None else all_benchmarks()
    na = neutral_atom_arch(mid=na_mid, native_max_arity=3)
    sc = superconducting_arch()
    errors = error_sweep(error_points)
    result = Fig8Result()
    cells = [
        (benchmark, arch, valid_sizes(benchmark, max_size, size_step))
        for benchmark in benchmarks
        for arch in (na, sc)
    ]
    ladders = size_ladder_grid_map(cells)
    for benchmark, (na_ladder, sc_ladder) in zip(
        benchmarks, zip(ladders[0::2], ladders[1::2])
    ):
        result.curves[benchmark] = (
            [(e, largest_runnable_from(na_ladder, na, e)) for e in errors],
            [(e, largest_runnable_from(sc_ladder, sc, e)) for e in errors],
        )
    return result


SPEC = register_experiment(
    name="fig8",
    runner=run,
    result_type=Fig8Result,
    quick=dict(max_size=30, size_step=10, error_points=9),
)
