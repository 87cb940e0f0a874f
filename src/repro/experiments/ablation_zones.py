"""Ablation — restriction-zone shape and crosstalk-motivated extension.

§IV-A raises two zone design questions the main figures do not sweep:

* how sensitive are the results to the radius function ``f``?  We compare
  ``f(d) = 0`` (ideal), ``d/2`` (paper), and ``d`` (harsh);
* the paper suggests *artificially extending* zones to suppress crosstalk
  "by increasing serialization" — the ``zone_scale`` knob.  We quantify
  the depth price of scales 1.0, 1.5, and 2.0.

Depth must be monotone in both knobs; gate counts should be unaffected
(zones serialize, they do not reroute).
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
RADIUS_FUNCTIONS = ("none", "half", "full")
ZONE_SCALES = (1.0, 1.5, 2.0)


@serializable
@dataclass(frozen=True)
class ZoneAblationPoint:
    benchmark: str
    size: int
    mid: float
    radius: str
    zone_scale: float
    gates: int
    depth: int


@dataclass
class ZoneAblationResult(ExperimentResult):
    points: List[ZoneAblationPoint] = field(default_factory=list)

    def select(
        self, benchmark: str, radius: str, zone_scale: float
    ) -> ZoneAblationPoint:
        for p in self.points:
            if (p.benchmark == benchmark and p.radius == radius
                    and abs(p.zone_scale - zone_scale) < 1e-9):
                return p
        raise KeyError((benchmark, radius, zone_scale))

    def format(self) -> str:
        lines = ["Ablation — Restriction Zone Shape and Scale",
                 "(same MID everywhere; zones change depth, not gates)", ""]
        rows = [
            (p.benchmark, p.size, f"{p.mid:g}", p.radius,
             f"{p.zone_scale:g}", p.gates, p.depth)
            for p in self.points
        ]
        lines.append(format_table(
            ["benchmark", "size", "MID", "f(d)", "scale", "gates", "depth"],
            rows,
        ))
        return "\n".join(lines)


@dataclass(frozen=True)
class ZoneTask:
    """One grid cell: compile one benchmark under one zone policy."""

    benchmark: str
    program_size: int
    mid: float
    radius: str
    zone_scale: float
    seed: int = 0  # stamped by grid_map; compilation is deterministic


def compile_zone_point(task: ZoneTask) -> ZoneAblationPoint:
    """Task function: one cached compile, one table row (module-level
    and picklable for spawn-based workers)."""
    circuit = build_circuit(task.benchmark, task.program_size)
    program = cached_compile(
        circuit,
        Topology.square(GRID_SIDE, task.mid),
        CompilerConfig(
            max_interaction_distance=task.mid,
            restriction_radius=task.radius,
            zone_scale=task.zone_scale,
            native_max_arity=2,
        ),
    )
    return ZoneAblationPoint(
        benchmark=task.benchmark,
        size=circuit.num_qubits,
        mid=task.mid,
        radius=task.radius,
        zone_scale=task.zone_scale,
        gates=program.gate_count(),
        depth=program.depth(),
    )


def run(
    benchmarks: Sequence[str] = ("qaoa", "qft-adder", "cuccaro"),
    program_size: int = 30,
    mid: float = 4.0,
    radius_functions: Sequence[str] = RADIUS_FUNCTIONS,
    zone_scales: Sequence[float] = ZONE_SCALES,
) -> ZoneAblationResult:
    """Run the zone ablation as one task grid over the exec engine.

    The grid is deliberately non-rectangular: ``f(d) = 0`` zones have no
    extent, so only scale 1.0 is compiled for them.
    """
    cells = [
        ZoneTask(benchmark=benchmark, program_size=program_size, mid=mid,
                 radius=radius, zone_scale=scale)
        for benchmark in benchmarks
        for radius in radius_functions
        for scale in (zone_scales if radius != "none" else (1.0,))
    ]
    return ZoneAblationResult(points=grid_map(
        compile_zone_point, cells, experiment="ablation-zones",
    ))


SPEC = register_experiment(
    name="ablation-zones",
    runner=run,
    result_type=ZoneAblationResult,
    quick=dict(benchmarks=("qaoa",), program_size=20),
)
