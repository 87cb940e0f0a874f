"""Ablation — the compile-small distance margin.

Compile Small trades compiled-program quality for remap slack: compiling
at ``true MID - margin`` means virtual shifts can stretch interactions by
``margin`` before the hardware limit bites.  The paper fixes margin = 1;
this ablation sweeps it, measuring both sides of the trade on the same
device:

* the compiled program's gate count grows and its clean success shrinks
  with the margin (smaller compiled MID needs more SWAPs — Fig 3 in
  reverse);
* loss tolerance gains more slack per shift, but empirically the trade is
  *not* monotone: the worse compiled program consumes the fixup SWAP
  budget faster, so very large margins can tolerate *less* loss.  The
  paper's margin-1 choice sits on the right side of that trade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.api.registry import register_experiment
from repro.api.results import ExperimentResult
from repro.api.serialize import serializable
from repro.core.config import CompilerConfig
from repro.exec.grid import grid_map
from repro.hardware.noise import NoiseModel
from repro.hardware.topology import Topology
from repro.loss.strategies.compile_small import CompileSmallReroute
from repro.loss.tolerance import max_loss_tolerance
from repro.utils.rng import RngLike, base_seed_from
from repro.utils.textplot import format_table
from repro.workloads.registry import build_circuit

GRID_SIDE = 10


@serializable
@dataclass(frozen=True)
class MarginPoint:
    margin: float
    compiled_mid: float
    gates: int
    clean_success: float
    tolerance_fraction: float


@dataclass
class MarginResult(ExperimentResult):
    benchmark: str = ""
    true_mid: float = 0.0
    points: List[MarginPoint] = field(default_factory=list)

    def select(self, margin: float) -> MarginPoint:
        for p in self.points:
            if abs(p.margin - margin) < 1e-9:
                return p
        raise KeyError(margin)

    def format(self) -> str:
        lines = [
            "Ablation — Compile-Small Margin "
            f"({self.benchmark}, true MID {self.true_mid:g})",
            "(bigger margin = more loss slack, worse compiled program)",
            "",
        ]
        rows = [
            (f"{p.margin:g}", f"{p.compiled_mid:g}", p.gates,
             f"{p.clean_success:.3f}", f"{p.tolerance_fraction:.1%}")
            for p in self.points
        ]
        lines.append(format_table(
            ["margin", "compiled MID", "gates", "clean success",
             "loss tolerance"],
            rows,
        ))
        return "\n".join(lines)


@dataclass(frozen=True)
class MarginTask:
    """One grid cell: the full tolerance study at one margin."""

    benchmark: str
    program_size: int
    true_mid: float
    margin: float
    trials: int
    seed: int = 0  # stamped by grid_map from the cell's canonical key


def measure_margin_point(task: MarginTask) -> MarginPoint:
    """Task function: tolerance trials plus one clean compile at one
    margin (module-level and picklable for spawn-based workers)."""
    noise = NoiseModel.neutral_atom()
    circuit = build_circuit(task.benchmark, task.program_size)
    strategy = CompileSmallReroute(margin=task.margin, noise=noise)
    tolerance = max_loss_tolerance(
        strategy,
        circuit,
        GRID_SIDE,
        task.true_mid,
        config=CompilerConfig(max_interaction_distance=task.true_mid),
        trials=task.trials,
        rng=task.seed,
    )
    # begin() ran inside the tolerance loop against lossy topologies;
    # recompile once cleanly (a cache hit after the first trial) to read
    # the compiled program's cost at this margin.
    program = strategy.begin(
        circuit,
        Topology.square(GRID_SIDE, task.true_mid),
        CompilerConfig(max_interaction_distance=task.true_mid),
    )
    return MarginPoint(
        margin=task.margin,
        compiled_mid=task.true_mid - task.margin,
        gates=program.gate_count(),
        clean_success=program.success_rate(noise),
        tolerance_fraction=tolerance.mean_fraction,
    )


def run(
    benchmark: str = "cnu",
    program_size: int = 30,
    true_mid: float = 5.0,
    margins: Sequence[float] = (1.0, 2.0, 3.0),
    trials: int = 3,
    rng: RngLike = 0,
) -> MarginResult:
    """Sweep the compile-small margin as a task grid over the exec
    engine (each margin's trials seeded from its canonical cell key)."""
    cells = [
        MarginTask(benchmark=benchmark, program_size=program_size,
                   true_mid=true_mid, margin=margin, trials=trials)
        for margin in margins
    ]
    return MarginResult(
        benchmark=benchmark,
        true_mid=true_mid,
        points=grid_map(measure_margin_point, cells,
                        experiment="ablation-margin",
                        base_seed=base_seed_from(rng)),
    )


SPEC = register_experiment(
    name="ablation-margin",
    runner=run,
    result_type=MarginResult,
    quick=dict(program_size=20, trials=2, margins=(1.0, 2.0)),
)
