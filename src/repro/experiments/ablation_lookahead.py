"""Ablation — lookahead window and decay of the §III-A weight function.

How much does the exponential lookahead actually buy?  Sweep the window
(1 layer = purely greedy, up to 20) and the decay rate, and record
post-compilation gate count and depth.  The paper asserts "simpler and
faster heuristics will suffice" for NA because dense connectivity makes
routing easy — this ablation makes that checkable: the win from deeper
lookahead should shrink as the MID grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.api.registry import register_experiment
from repro.api.results import ExperimentResult
from repro.api.serialize import serializable
from repro.core.config import CompilerConfig
from repro.exec.cache import cached_compile
from repro.exec.grid import grid_map
from repro.hardware.topology import Topology
from repro.utils.textplot import format_table
from repro.workloads.registry import build_circuit

GRID_SIDE = 10
WINDOWS = (1, 3, 10, 20)
DECAYS = (0.5, 1.0, 2.0)


@serializable
@dataclass(frozen=True)
class LookaheadPoint:
    benchmark: str
    mid: float
    window: int
    decay: float
    gates: int
    depth: int
    swaps: int


@dataclass
class LookaheadResult(ExperimentResult):
    points: List[LookaheadPoint] = field(default_factory=list)

    def select(self, benchmark: str, mid: float, window: int,
               decay: float = 1.0) -> LookaheadPoint:
        for p in self.points:
            if (p.benchmark == benchmark and abs(p.mid - mid) < 1e-9
                    and p.window == window and abs(p.decay - decay) < 1e-9):
                return p
        raise KeyError((benchmark, mid, window, decay))

    def lookahead_benefit(self, benchmark: str, mid: float) -> float:
        """Relative swap saving of the deepest window over the shallowest."""
        shallow = self.select(benchmark, mid, min(WINDOWS)).swaps
        deep = self.select(benchmark, mid, max(WINDOWS)).swaps
        if shallow == 0:
            return 0.0
        return 1.0 - deep / shallow

    def format(self) -> str:
        lines = ["Ablation — Lookahead Window / Decay", ""]
        rows = [
            (p.benchmark, f"{p.mid:g}", p.window, f"{p.decay:g}", p.gates,
             p.depth, p.swaps)
            for p in self.points
        ]
        lines.append(format_table(
            ["benchmark", "MID", "window", "decay", "gates", "depth",
             "swaps"],
            rows,
        ))
        return "\n".join(lines)


@dataclass(frozen=True)
class LookaheadTask:
    """One grid cell: compile one benchmark at one heuristic setting."""

    benchmark: str
    program_size: int
    mid: float
    window: int
    decay: float
    seed: int = 0  # stamped by grid_map; compilation is deterministic


def compile_lookahead_point(task: LookaheadTask) -> LookaheadPoint:
    """Task function: one cached compile, one table row (module-level
    and picklable for spawn-based workers)."""
    circuit = build_circuit(task.benchmark, task.program_size)
    program = cached_compile(
        circuit,
        Topology.square(GRID_SIDE, task.mid),
        CompilerConfig(
            max_interaction_distance=task.mid,
            native_max_arity=2,
            restriction_radius="none" if task.mid == 1.0 else "half",
            lookahead_layers=task.window,
            lookahead_decay=task.decay,
        ),
    )
    return LookaheadPoint(
        benchmark=task.benchmark,
        mid=task.mid,
        window=task.window,
        decay=task.decay,
        gates=program.gate_count(),
        depth=program.depth(),
        swaps=program.swap_count,
    )


def run(
    benchmarks: Sequence[str] = ("bv", "qaoa"),
    mids: Sequence[float] = (1.0, 3.0),
    program_size: int = 30,
    windows: Sequence[int] = WINDOWS,
    decays: Sequence[float] = (1.0,),
) -> LookaheadResult:
    """Run the lookahead ablation as one task grid over the exec engine."""
    cells = [
        LookaheadTask(benchmark=benchmark, program_size=program_size,
                      mid=mid, window=window, decay=decay)
        for benchmark in benchmarks
        for mid in mids
        for window in windows
        for decay in decays
    ]
    return LookaheadResult(points=grid_map(
        compile_lookahead_point, cells, experiment="ablation-lookahead",
    ))


SPEC = register_experiment(
    name="ablation-lookahead",
    runner=run,
    result_type=LookaheadResult,
    quick=dict(program_size=20),
)
