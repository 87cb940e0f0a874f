"""Extension — three-way architecture comparison: NA vs SC vs TI.

The paper's Discussion positions trapped ions as the closest competitor:
"many of the same advantages as neutral atoms such as global interactions
and multiqubit gates but at the cost of parallelism".  This experiment
makes that trade quantitative by compiling every benchmark for all three
architectures:

* **NA** — MID 3, `f(d)=d/2` zones, native Toffolis;
* **SC** — MID 1 grid, no zones, decomposed;
* **TI** — single trap: all-to-all (no SWAPs at all) and native
  Toffolis, but a device-wide restriction zone serializing every
  entangling gate, with hundreds-of-microseconds gate times.

Expected shape: TI wins raw gate count (zero SWAPs), loses depth to
serialization on parallel benchmarks, and loses wall-clock duration by
orders of magnitude (slow gates x full serialization), which is where its
coherence budget goes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.analysis.architectures import (
    Architecture,
    compiled_metrics,
    metrics_grid_map,
    neutral_atom_arch,
    superconducting_arch,
    trapped_ion_arch,
)
from repro.analysis.metrics import ProgramMetrics
from repro.api.registry import register_experiment
from repro.api.results import ExperimentResult
from repro.utils.textplot import format_table
from repro.workloads.registry import BENCHMARK_ORDER

ARCH_ORDER = ("na", "sc", "ti")


@dataclass
class ThreeWayResult(ExperimentResult):
    #: (benchmark, arch key) -> metrics.
    cells: Dict[Tuple[str, str], ProgramMetrics] = field(default_factory=dict)
    #: (benchmark, arch key) -> (duration seconds, success rate).
    derived: Dict[Tuple[str, str], Tuple[float, float]] = field(
        default_factory=dict
    )

    def metrics(self, benchmark: str, arch: str) -> ProgramMetrics:
        return self.cells[(benchmark, arch)]

    def duration(self, benchmark: str, arch: str) -> float:
        return self.derived[(benchmark, arch)][0]

    def success(self, benchmark: str, arch: str) -> float:
        return self.derived[(benchmark, arch)][1]

    def format(self) -> str:
        lines = ["Extension — NA vs SC vs Trapped-Ion (single trap)", ""]
        rows = []
        for (benchmark, arch), metrics in sorted(self.cells.items()):
            duration, success = self.derived[(benchmark, arch)]
            rows.append((
                benchmark, arch, metrics.gate_count, metrics.depth,
                metrics.swap_count, f"{duration * 1e3:.2f}ms",
                f"{success:.3e}",
            ))
        lines.append(format_table(
            ["benchmark", "arch", "gates", "depth", "swaps", "duration",
             "success"],
            rows,
        ))
        return "\n".join(lines)


def run(
    benchmarks: Sequence[str] = tuple(BENCHMARK_ORDER),
    program_size: int = 30,
    na_mid: float = 3.0,
) -> ThreeWayResult:
    """Compile each benchmark on the three architectures.

    The whole (benchmark x architecture) compile grid fans out over the
    exec engine; the duration/success aggregation below then runs
    entirely against the in-process metrics cache.
    """
    architectures: Dict[str, Architecture] = {
        "na": neutral_atom_arch(mid=na_mid, native_max_arity=3),
        "sc": superconducting_arch(),
        "ti": trapped_ion_arch(),
    }
    metrics_grid_map(
        [(benchmark, program_size, arch, 0)
         for benchmark in benchmarks for arch in architectures.values()],
    )
    result = ThreeWayResult()
    for benchmark in benchmarks:
        for key, arch in architectures.items():
            metrics = compiled_metrics(benchmark, program_size, arch)
            noise = arch.noise()
            result.cells[(benchmark, key)] = metrics
            result.derived[(benchmark, key)] = (
                metrics.duration(noise),
                metrics.success_rate(noise),
            )
    return result


SPEC = register_experiment(
    name="ext-trapped-ion",
    runner=run,
    result_type=ThreeWayResult,
    quick=dict(benchmarks=("bv", "cnu", "qaoa"), program_size=20),
)
