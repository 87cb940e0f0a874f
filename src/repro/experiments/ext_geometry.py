"""Extension — 1D vs 2D atom arrangements.

§II-C notes atoms can be arranged in one, two, or three dimensions; the
paper studies square 2D arrays.  This experiment quantifies why: compile
the same programs onto a 1xN chain and a sqrt(N) x sqrt(N) square with
the same atom count and MID.  The square's lower average pairwise
distance should cut SWAP counts substantially — the geometric argument
for 2D tweezer arrays.
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
from repro.hardware.grid import Grid
from repro.hardware.topology import Topology
from repro.utils.textplot import format_table
from repro.workloads.registry import build_circuit


@serializable
@dataclass(frozen=True)
class GeometryPoint:
    benchmark: str
    size: int
    mid: float
    shape: str  # "line" or "square"
    gates: int
    depth: int
    swaps: int


@dataclass
class GeometryResult(ExperimentResult):
    points: List[GeometryPoint] = field(default_factory=list)

    def select(self, benchmark: str, shape: str, mid: float) -> GeometryPoint:
        for p in self.points:
            if (p.benchmark == benchmark and p.shape == shape
                    and abs(p.mid - mid) < 1e-9):
                return p
        raise KeyError((benchmark, shape, mid))

    def swap_advantage(self, benchmark: str, mid: float) -> float:
        """SWAPs saved by the square relative to the line."""
        line = self.select(benchmark, "line", mid).swaps
        square = self.select(benchmark, "square", mid).swaps
        if line == 0:
            return 0.0
        return 1.0 - square / line

    def format(self) -> str:
        lines = ["Extension — 1D Chain vs 2D Square (same atoms, same MID)",
                 ""]
        rows = [
            (p.benchmark, p.size, f"{p.mid:g}", p.shape, p.gates, p.depth,
             p.swaps)
            for p in self.points
        ]
        lines.append(format_table(
            ["benchmark", "size", "MID", "shape", "gates", "depth",
             "swaps"],
            rows,
        ))
        return "\n".join(lines)


@dataclass(frozen=True)
class GeometryTask:
    """One grid cell: compile one benchmark onto one atom arrangement."""

    benchmark: str
    program_size: int
    rows: int
    cols: int
    shape: str  # "line" or "square"
    mid: float
    seed: int = 0  # stamped by grid_map; compilation is deterministic


def compile_geometry_point(task: GeometryTask) -> GeometryPoint:
    """Task function: one cached compile, one table row (module-level
    and picklable for spawn-based workers)."""
    circuit = build_circuit(task.benchmark, task.program_size)
    program = cached_compile(
        circuit,
        Topology(Grid(task.rows, task.cols), task.mid),
        CompilerConfig(max_interaction_distance=task.mid,
                       native_max_arity=2),
    )
    return GeometryPoint(
        benchmark=task.benchmark,
        size=circuit.num_qubits,
        mid=task.mid,
        shape=task.shape,
        gates=program.gate_count(),
        depth=program.depth(),
        swaps=program.swap_count,
    )


def run(
    benchmarks: Sequence[str] = ("bv", "cuccaro", "qaoa"),
    grid_side: int = 6,
    mids: Sequence[float] = (2.0, 3.0),
    fill_fraction: float = 0.6,
) -> GeometryResult:
    """Compile onto a 1 x side^2 chain and a side x side square, as one
    task grid over the exec engine."""
    num_atoms = grid_side * grid_side
    program_size = max(4, int(fill_fraction * num_atoms))
    cells = [
        GeometryTask(benchmark=benchmark, program_size=program_size,
                     rows=rows, cols=cols, shape=shape, mid=mid)
        for benchmark in benchmarks
        for mid in mids
        for shape, rows, cols in (
            ("line", 1, num_atoms),
            ("square", grid_side, grid_side),
        )
    ]
    return GeometryResult(points=grid_map(
        compile_geometry_point, cells, experiment="ext-geometry",
    ))


SPEC = register_experiment(
    name="ext-geometry",
    runner=run,
    result_type=GeometryResult,
    quick=dict(benchmarks=("bv",), grid_side=5),
)
