"""Extension — destructive (ejection) readout.

§VI notes that some NA systems read out by ejecting atoms, losing ~50% of
measured atoms every cycle, and that "this model is extremely destructive
and coping strategies are only effective if the program is much smaller
than the total size of the hardware".  This experiment makes that claim
quantitative: run the shot loop under the 50%-loss readout for a small
program (plenty of spares) and a large one (few spares) and compare
reload pressure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.api.registry import register_experiment
from repro.api.results import ExperimentResult
from repro.core.config import CompilerConfig
from repro.exec.cache import cached_compile
from repro.hardware.loss import LossModel
from repro.hardware.topology import Topology
from repro.loss.runner import RunResult, ShotSpec, run_shot_grid_map
from repro.loss.strategies.compile_small import compiled_distance
from repro.utils.rng import RngLike, base_seed_from
from repro.utils.textplot import format_table
from repro.workloads.registry import build_circuit

GRID_SIDE = 10
MID = 4.0


@dataclass
class EjectionResult(ExperimentResult):
    #: (program size label, strategy) -> run result.
    runs: Dict[Tuple[int, str], RunResult] = field(default_factory=dict)

    def reloads_per_success(self, size: int, strategy: str) -> float:
        result = self.runs[(size, strategy)]
        return result.reload_count / max(1, result.shots_successful)

    def format(self) -> str:
        lines = ["Extension — Ejection Readout (50% measured-atom loss)",
                 "(strategies only help when program << device)", ""]
        rows = []
        for (size, strategy), result in sorted(self.runs.items()):
            rows.append((
                size, strategy, result.shots_attempted,
                result.shots_successful, result.reload_count,
                f"{result.overhead_time:.2f}s",
            ))
        lines.append(format_table(
            ["size", "strategy", "shots", "ok", "reloads", "overhead"],
            rows,
        ))
        return "\n".join(lines)


def run(
    benchmark: str = "cnu",
    sizes: Sequence[int] = (12, 60),
    strategies: Sequence[str] = ("always reload", "c. small+reroute"),
    shots: int = 150,
    rng: RngLike = 0,
) -> EjectionResult:
    """Compare strategies under ejection readout at two program sizes.

    The (size x strategy) shot loops fan out over the exec engine.  The
    initial compiles are pinned into the session cache *before* the
    fan-out, so the compile events in every run's overhead breakdown
    carry one stored wall-clock measurement at any worker count.
    """
    loss_model = LossModel.ejection_readout()
    cells = []
    labels = []
    for size in sizes:
        circuit = build_circuit(benchmark, size)
        cached_compile(circuit, Topology.square(GRID_SIDE, MID),
                       CompilerConfig(max_interaction_distance=MID))
        if any("small" in name for name in strategies):
            reduced = compiled_distance(MID)
            cached_compile(circuit, Topology.square(GRID_SIDE, reduced),
                           CompilerConfig(max_interaction_distance=reduced))
        for name in strategies:
            labels.append((circuit.num_qubits, name))
            cells.append(ShotSpec(
                strategy=name,
                benchmark=benchmark,
                program_size=size,
                grid_side=GRID_SIDE,
                mid=MID,
                max_shots=shots,
                seed=0,  # overwritten with the key-derived seed
                loss_model=loss_model,
            ))
    result = EjectionResult()
    for label, run_result in zip(labels, run_shot_grid_map(
        cells, experiment="ext-ejection", base_seed=base_seed_from(rng),
    )):
        result.runs[label] = run_result
    return result


SPEC = register_experiment(
    name="ext-ejection",
    runner=run,
    result_type=EjectionResult,
    quick=dict(shots=60),
)
