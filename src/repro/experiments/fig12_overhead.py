"""Fig 12 — overhead time for 500 shots, by strategy and MID.

Runs the shot simulator for each non-recompiling strategy (plus Always
Reload as the anchor) and reports the wall-clock overhead split into
reload / fluorescence / fixup / compile.  The paper's conclusions, all
reproduced:

* reload time dominates every bar;
* every adaptive strategy beats Always Reload;
* recompilation is excluded because software compile time exceeds the
  reload time (we report it separately so the claim is checkable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.api.registry import register_experiment
from repro.api.results import ExperimentResult
from repro.core.config import CompilerConfig
from repro.exec.cache import cached_compile
from repro.exec.keys import derive_seed, task_key
from repro.hardware.loss import LossModel
from repro.hardware.timing import TimingModel
from repro.hardware.topology import Topology
from repro.loss.runner import RunResult, ShotSpec, run_shot_specs
from repro.utils.rng import RngLike, base_seed_from
from repro.utils.textplot import format_table
from repro.workloads.registry import build_circuit

GRID_SIDE = 10
PROGRAM_SIZE = 30
FIG12_STRATEGIES = (
    "virtual remapping",
    "compile small",
    "always reload",
    "reroute",
    "c. small+reroute",
)
FIG12_MIDS = (2.0, 3.0, 4.0, 5.0, 6.0)


@dataclass
class Fig12Result(ExperimentResult):
    #: (strategy, mid) -> run result.
    runs: Dict[Tuple[str, float], RunResult] = field(default_factory=dict)
    #: Wall-clock compile seconds of one full recompilation, for the
    #: "recompilation exceeds reload" comparison.
    recompile_seconds: Dict[float, float] = field(default_factory=dict)
    reload_time: float = 0.3

    def overhead(self, strategy: str, mid: float) -> float:
        return self.runs[(strategy, mid)].overhead_time

    def format(self) -> str:
        lines = ["Fig 12 — Overhead Time for 500 Shots (CNU)",
                 "(columns: total overhead, reload, fluorescence, fixup, "
                 "compile, #reloads)", ""]
        mids = sorted({m for _, m in self.runs})
        for mid in mids:
            lines.append(f"MID {mid:g}:")
            rows = []
            for (strategy, run_mid), result in self.runs.items():
                if abs(run_mid - mid) > 1e-9:
                    continue
                kinds = result.time_by_kind()
                rows.append((
                    strategy,
                    f"{result.overhead_time:.2f}s",
                    f"{kinds['reload']:.2f}s",
                    f"{kinds['fluorescence']:.2f}s",
                    f"{kinds['fixup'] * 1e3:.2f}ms",
                    f"{kinds['compile']:.2f}s",
                    result.reload_count,
                ))
            lines.append(format_table(
                ["strategy", "overhead", "reload", "fluor", "fixup",
                 "compile", "reloads"],
                rows,
            ))
            if mid in self.recompile_seconds:
                lines.append(
                    f"  (one full recompile: {self.recompile_seconds[mid]:.2f}s"
                    f" vs one reload: {self.reload_time:.2f}s)"
                )
            lines.append("")
        return "\n".join(lines)


def run(
    benchmark: str = "cnu",
    strategies: Sequence[str] = FIG12_STRATEGIES,
    mids: Sequence[float] = FIG12_MIDS,
    shots: int = 500,
    program_size: int = PROGRAM_SIZE,
    rng: RngLike = 0,
    timing: Optional[TimingModel] = None,
    loss_model: Optional[LossModel] = None,
) -> Fig12Result:
    """Regenerate Fig 12.

    The (strategy x MID) grid fans out over the sweep engine; every
    task's seed is derived from its canonical key, so shot outcomes are
    identical at any ``jobs`` count.  The wall-clock compile durations
    in the output are additionally pinned when an on-disk cache is
    configured (see :mod:`repro.exec.cache`); without one, parallel
    workers re-measure them and only those columns may vary.
    """
    timing = timing or TimingModel.paper_defaults()
    loss_model = loss_model or LossModel.lossless_readout()
    base_seed = base_seed_from(rng)
    result = Fig12Result(reload_time=timing.reload_time)
    circuit = build_circuit(benchmark, program_size)

    # Pin every compile artifact the strategies will need *before* the
    # fan-out: workers then read one stored compile time from the shared
    # disk cache instead of racing to measure their own, so even a cold
    # disk cache yields identical output at any worker count.  (Without
    # a disk tier — --no-cache — parallel workers cannot see these and
    # re-measure; only the compile-time columns can then wobble.  The
    # full-MID compiles below also provide the recompile-exclusion
    # numbers.)
    from repro.loss.strategies.compile_small import compiled_distance

    for mid in mids:
        program = cached_compile(
            circuit,
            Topology.square(GRID_SIDE, mid),
            CompilerConfig(max_interaction_distance=mid),
        )
        result.recompile_seconds[mid] = program.compile_seconds
        if any("small" in name for name in strategies) and mid > 2.0:
            reduced = compiled_distance(mid)
            cached_compile(
                circuit,
                Topology.square(GRID_SIDE, reduced),
                CompilerConfig(max_interaction_distance=reduced),
            )

    cells = []
    for mid in mids:
        for name in strategies:
            if "small" in name and mid <= 2.0:
                continue
            key = task_key(experiment="fig12", benchmark=benchmark,
                           strategy=name, mid=float(mid),
                           program_size=program_size, shots=shots)
            cells.append((name, mid, ShotSpec(
                strategy=name,
                benchmark=benchmark,
                program_size=program_size,
                grid_side=GRID_SIDE,
                mid=float(mid),
                max_shots=shots,
                seed=derive_seed(key, base=base_seed),
                loss_model=loss_model,
                timing=timing,
            )))
    for (name, mid, _), run_result in zip(
        cells, run_shot_specs([spec for _, _, spec in cells])
    ):
        result.runs[(name, mid)] = run_result
    return result


SPEC = register_experiment(
    name="fig12",
    runner=run,
    result_type=Fig12Result,
    quick=dict(mids=(3.0, 4.0), shots=120, program_size=20),
)
