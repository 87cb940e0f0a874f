"""Fig 7 — program success rate vs two-qubit gate error.

50-qubit programs (49-effective for CNU), NA at MID 3 with native
multiqubit gates vs the SC baseline, swept over two-qubit physical error
rates from 1e-5 to 1e-1.  Lower program error is better; the paper's
claim is that NA diverges from the all-noise outcome at *higher* physical
error than SC, because its compiled programs contain far fewer two-qubit
gate opportunities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.analysis.architectures import (
    neutral_atom_arch,
    metrics_grid_map,
    superconducting_arch,
)
from repro.analysis.success import (
    SuccessComparison,
    compare_architectures,
    error_sweep,
)
from repro.api.registry import register_experiment
from repro.api.results import ExperimentResult
from repro.experiments.common import all_benchmarks
from repro.utils.textplot import format_series

#: The paper's Fig 7 program size and NA interaction distance.
PROGRAM_SIZE = 50
NA_MID = 3.0


@dataclass
class Fig7Result(ExperimentResult):
    comparisons: Dict[str, SuccessComparison] = field(default_factory=dict)

    def format(self) -> str:
        lines = ["Fig 7 — Success Rate Comparison (program error vs 2q error)",
                 f"(size ~{PROGRAM_SIZE}, NA MID {NA_MID:g} vs SC MID 1)", ""]
        for name, cmp in self.comparisons.items():
            xs = [e for e, _ in cmp.na_curve]
            lines.append(format_series(
                f"  {name} NA ", xs, [err for _, err in cmp.na_curve]))
            lines.append(format_series(
                f"  {name} SC ", xs, [err for _, err in cmp.sc_curve]))
            na_div, sc_div = cmp.divergence_error()
            lines.append(
                f"  {name}: diverges from all-noise at 2q error "
                f"NA<={na_div:.2e} vs SC<={sc_div:.2e}"
            )
            lines.append("")
        return "\n".join(lines)


def run(
    benchmarks: Optional[Sequence[str]] = None,
    program_size: int = PROGRAM_SIZE,
    na_mid: float = NA_MID,
    error_points: int = 17,
) -> Fig7Result:
    """Regenerate Fig 7.

    The (benchmark x architecture) compile grid fans out over the sweep
    engine; the error sweep itself is a cheap serial pass over the
    cached metrics.
    """
    benchmarks = list(benchmarks) if benchmarks is not None else all_benchmarks()
    na = neutral_atom_arch(mid=na_mid, native_max_arity=3)
    sc = superconducting_arch()
    errors = error_sweep(error_points)
    result = Fig7Result()
    metrics_grid_map(
        [(benchmark, program_size, arch, 0)
         for benchmark in benchmarks for arch in (na, sc)],
    )
    for benchmark in benchmarks:
        result.comparisons[benchmark] = compare_architectures(
            benchmark, program_size, na, sc, errors
        )
    return result


SPEC = register_experiment(
    name="fig7",
    runner=run,
    result_type=Fig7Result,
    quick=dict(program_size=24, error_points=9),
)
