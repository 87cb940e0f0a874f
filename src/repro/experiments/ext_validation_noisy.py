"""Extension — Monte-Carlo cross-validation of the §V success estimate.

The paper's success model is a closed-form product of gate fidelities.
This experiment validates it against direct noisy simulation: sample
shots where failed gates inject random Paulis and compare the empirical
success frequency with the analytic estimate, across error rates and
benchmarks small enough to simulate exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.api.registry import register_experiment
from repro.api.results import ExperimentResult
from repro.api.serialize import serializable
from repro.exec.grid import grid_map
from repro.hardware.noise import NoiseModel
from repro.sim.noisy import sample_noisy_shots
from repro.utils.rng import base_seed_from
from repro.utils.textplot import format_table
from repro.workloads.registry import build_circuit


@serializable
@dataclass(frozen=True)
class NoisyValidationRow:
    benchmark: str
    size: int
    two_qubit_error: float
    analytic: float
    empirical: float
    shots: int

    @property
    def absolute_gap(self) -> float:
        return abs(self.analytic - self.empirical)


@dataclass
class NoisyValidationResult(ExperimentResult):
    rows: List[NoisyValidationRow] = field(default_factory=list)

    @property
    def max_gap(self) -> float:
        return max(r.absolute_gap for r in self.rows)

    def format(self) -> str:
        lines = ["Extension — Monte-Carlo Validation of the Success Model",
                 ""]
        table = [
            (r.benchmark, r.size, f"{r.two_qubit_error:.1e}",
             f"{r.analytic:.3f}", f"{r.empirical:.3f}",
             f"{r.absolute_gap:.3f}", r.shots)
            for r in self.rows
        ]
        lines.append(format_table(
            ["benchmark", "size", "2q error", "analytic", "empirical",
             "|gap|", "shots"],
            table,
        ))
        lines.append("")
        lines.append(f"max gap: {self.max_gap:.3f}")
        return "\n".join(lines)


@dataclass(frozen=True)
class NoisySampleTask:
    """One grid cell: Monte-Carlo shots at one (benchmark, error)."""

    benchmark: str
    program_size: int
    two_qubit_error: float
    shots: int
    seed: int = 0  # stamped by grid_map from the cell's canonical key


def sample_validation_row(task: NoisySampleTask) -> NoisyValidationRow:
    """Task function: sample one cell and compare with the analytic
    estimate (module-level and picklable for spawn-based workers)."""
    circuit = build_circuit(task.benchmark, task.program_size)
    noise = NoiseModel.neutral_atom(two_qubit_error=task.two_qubit_error)
    sim = sample_noisy_shots(circuit, noise, shots=task.shots, rng=task.seed)
    return NoisyValidationRow(
        benchmark=task.benchmark,
        size=circuit.num_qubits,
        two_qubit_error=task.two_qubit_error,
        analytic=sim.analytic_estimate,
        empirical=sim.empirical_rate,
        shots=task.shots,
    )


def run(
    benchmarks: Sequence[str] = ("bv", "cuccaro"),
    program_size: int = 8,
    errors: Sequence[float] = (0.002, 0.01, 0.05),
    shots: int = 400,
    rng: int = 0,
) -> NoisyValidationResult:
    """Compare analytic vs sampled success across a small grid, fanned
    out over the exec engine with key-derived per-cell seeds."""
    cells = [
        NoisySampleTask(benchmark=benchmark, program_size=program_size,
                        two_qubit_error=error, shots=shots)
        for benchmark in benchmarks
        for error in errors
    ]
    return NoisyValidationResult(rows=grid_map(
        sample_validation_row, cells, experiment="ext-noisy-validation",
        base_seed=base_seed_from(rng),
    ))


SPEC = register_experiment(
    name="ext-noisy-validation",
    runner=run,
    result_type=NoisyValidationResult,
    quick=dict(shots=150),
)
