"""Extension — device-size scaling of the interaction-distance benefit.

§IV-A predicts: "For larger devices, the curves will be similar, however,
requiring increasingly larger interaction distances to obtain the
minimum.  The shape of the curve will be more elongated, related directly
to the average distance between qubits."

This experiment compiles a benchmark sized to a fixed fraction of the
device on grids of growing side length and records, per device, the
smallest MID achieving within 5% of the all-to-all (minimum) gate count —
the "saturation MID".  It should grow with device size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.api.registry import register_experiment
from repro.api.results import ExperimentResult
from repro.core.config import CompilerConfig
from repro.exec.cache import cached_compile
from repro.exec.grid import grid_map
from repro.hardware.topology import Topology
from repro.utils.textplot import format_series, format_table
from repro.workloads.registry import build_circuit


@dataclass
class ScalingResult(ExperimentResult):
    #: grid side -> [(mid, gate count)].
    curves: Dict[int, List[Tuple[float, int]]] = field(default_factory=dict)
    #: grid side -> smallest MID within tolerance of the minimum.
    saturation_mid: Dict[int, float] = field(default_factory=dict)

    def format(self) -> str:
        lines = ["Extension — Device Scaling of Long-Range Benefit", ""]
        for side in sorted(self.curves):
            xs = [m for m, _ in self.curves[side]]
            ys = [g for _, g in self.curves[side]]
            lines.append(format_series(f"  {side}x{side}", xs, ys))
        lines.append("")
        rows = [(f"{side}x{side}", f"{mid:g}")
                for side, mid in sorted(self.saturation_mid.items())]
        lines.append(format_table(["device", "saturation MID"], rows))
        return "\n".join(lines)


@dataclass(frozen=True)
class ScalingTask:
    """One grid cell: compile one device-size/MID combination."""

    benchmark: str
    grid_side: int
    program_size: int
    mid: float
    seed: int = 0  # stamped by grid_map; compilation is deterministic


def compile_gate_count(task: ScalingTask) -> int:
    """Task function: one cached compile, one curve sample (module-level
    and picklable for spawn-based workers)."""
    program = cached_compile(
        build_circuit(task.benchmark, task.program_size),
        Topology.square(task.grid_side, task.mid),
        CompilerConfig(max_interaction_distance=task.mid,
                       native_max_arity=2),
    )
    return program.gate_count()


def _device_mids(side: int) -> List[float]:
    """The MID sweep for one device: every integer radius up to (and
    including) the device diagonal."""
    max_mid = math.hypot(side - 1, side - 1)
    return sorted({float(m) for m in range(1, int(max_mid) + 1)} | {max_mid})


def run(
    benchmark: str = "bv",
    grid_sides: Sequence[int] = (6, 10, 14),
    fill_fraction: float = 0.4,
    tolerance: float = 0.05,
) -> ScalingResult:
    """Measure the saturation MID on each device size.

    The program occupies ``fill_fraction`` of each device, so bigger
    devices host bigger programs — the regime where the paper expects
    long distances to matter more.  Every (device x MID) compile fans
    out as one task grid; the curve/saturation reduction is serial.
    """
    cells = [
        ScalingTask(benchmark=benchmark, grid_side=side,
                    program_size=max(4, int(fill_fraction * side * side)),
                    mid=mid)
        for side in grid_sides
        for mid in _device_mids(side)
    ]
    gate_counts = iter(grid_map(
        compile_gate_count, cells, experiment="ext-scaling",
    ))
    result = ScalingResult()
    for side in grid_sides:
        curve = [(mid, next(gate_counts)) for mid in _device_mids(side)]
        result.curves[side] = curve
        minimum = min(g for _, g in curve)
        for mid, gates in curve:
            if gates <= minimum * (1.0 + tolerance):
                result.saturation_mid[side] = mid
                break
    return result


SPEC = register_experiment(
    name="ext-scaling",
    runner=run,
    result_type=ScalingResult,
    quick=dict(grid_sides=(6, 10)),
)
