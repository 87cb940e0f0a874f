"""Workload experiments: user-supplied and generated programs.

The §III-B benchmark suite is fixed; production traffic is not.  These
drivers grow scenario coverage past the paper without a hand-written
driver per program:

* ``workload-metrics`` — compile **any workload reference** (a named
  family, ``family@size``, or an uploaded ``circuit:<digest>``) across a
  MID sweep.  This is the experiment behind ``repro run workload-metrics
  --circuit file.qasm``: an uploaded program rides the full stack —
  store replay, in-flight dedup, sweeps, fleet — exactly like a named
  benchmark.
* ``gen-qaoa`` / ``gen-adder`` / ``gen-random`` — parameterized
  generated families (QAOA at arbitrary depth, adders at arbitrary
  width, random-structure programs) registered as first-class
  :class:`~repro.api.registry.ExperimentSpec`\\ s.

All four compile through the session cache (``cached_compile``) and
report the same per-MID metrics table, so results are comparable across
sources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.analysis.metrics import ProgramMetrics
from repro.api.registry import register_experiment
from repro.api.results import ExperimentResult
from repro.circuits.circuit import Circuit
from repro.exec.cache import cached_compile
from repro.experiments.common import na_arch_for_mid
from repro.utils.textplot import format_table
from repro.workloads.cuccaro import cuccaro_adder
from repro.workloads.qaoa import qaoa_maxcut
from repro.workloads.qft_adder import qft_adder
from repro.workloads.random_circuits import random_circuit
from repro.workloads.ref import resolve_circuit

#: One compiled point: (mid, qubits, gates, op count, depth, swaps).
MetricsRow = Tuple[float, int, int, int, int, int]


def _sweep_mids(circuit: Circuit, mids: Sequence[float],
                label: str) -> Tuple[MetricsRow, ...]:
    """Compile ``circuit`` at each MID (session cache) into table rows."""
    rows = []
    for mid in mids:
        arch = na_arch_for_mid(float(mid))
        program = cached_compile(circuit, arch.topology(), arch.config())
        metrics = ProgramMetrics.from_program(program, benchmark=label)
        rows.append((float(mid), metrics.num_qubits, metrics.gate_count,
                     metrics.op_count, metrics.depth, metrics.swap_count))
    return tuple(rows)


def _format_rows(title: str, rows: Sequence[MetricsRow]) -> str:
    table = format_table(
        ["mid", "qubits", "gates", "ops", "depth", "swaps"],
        [(f"{mid:g}", qubits, gates, ops, depth, swaps)
         for mid, qubits, gates, ops, depth, swaps in rows],
    )
    return f"{title}\n\n{table}"


# -- any workload reference --------------------------------------------------------


@dataclass
class WorkloadMetricsResult(ExperimentResult):
    workload: str = ""
    program_size: int = 0
    #: The register size actually compiled (families round requested
    #: sizes; uploads fix it outright).
    realized_size: int = 0
    rows: Tuple[MetricsRow, ...] = ()

    def format(self) -> str:
        return _format_rows(
            f"Workload metrics — {self.workload} "
            f"(requested {self.program_size}, realized {self.realized_size})",
            self.rows,
        )


def run_workload_metrics(
    workload: str = "bv",
    program_size: int = 30,
    mids: Sequence[float] = (1.0, 2.0, 3.0, 5.0),
    rng: int = 0,
) -> WorkloadMetricsResult:
    """Compile one workload reference across a MID sweep."""
    circuit = resolve_circuit(workload, program_size, rng=rng)
    return WorkloadMetricsResult(
        workload=str(workload),
        program_size=int(program_size),
        realized_size=circuit.num_qubits,
        rows=_sweep_mids(circuit, mids, str(workload)),
    )


register_experiment(
    name="workload-metrics",
    runner=run_workload_metrics,
    result_type=WorkloadMetricsResult,
    quick=dict(program_size=8, mids=(1.0, 3.0)),
    doc="Compile any workload reference (family or uploaded circuit) "
        "across a MID sweep",
    circuit_params=("workload",),
)


# -- generated families ------------------------------------------------------------


@dataclass
class GeneratedQaoaResult(ExperimentResult):
    nodes: int = 0
    layers: int = 0
    rng: int = 0
    rows: Tuple[MetricsRow, ...] = ()

    def format(self) -> str:
        return _format_rows(
            f"Generated QAOA — {self.nodes} nodes, {self.layers} layer(s), "
            f"seed {self.rng}",
            self.rows,
        )


def run_gen_qaoa(
    nodes: int = 12,
    layers: int = 1,
    gamma: float = 0.7,
    beta: float = 0.3,
    mids: Sequence[float] = (1.0, 2.0, 3.0, 5.0),
    rng: int = 0,
) -> GeneratedQaoaResult:
    """QAOA MAX-CUT at arbitrary depth on a random graph."""
    circuit = qaoa_maxcut(nodes, gamma=gamma, beta=beta, layers=layers,
                          rng=rng)
    return GeneratedQaoaResult(
        nodes=int(nodes), layers=int(layers), rng=int(rng),
        rows=_sweep_mids(circuit, mids, "gen-qaoa"),
    )


register_experiment(
    name="gen-qaoa",
    runner=run_gen_qaoa,
    result_type=GeneratedQaoaResult,
    quick=dict(nodes=6, mids=(1.0, 3.0)),
    doc="Generated family: parameterized QAOA at arbitrary depth",
)


@dataclass
class GeneratedAdderResult(ExperimentResult):
    kind: str = ""
    bits: int = 0
    num_qubits: int = 0
    rows: Tuple[MetricsRow, ...] = ()

    def format(self) -> str:
        return _format_rows(
            f"Generated adder — {self.kind}, {self.bits}-bit operands "
            f"({self.num_qubits} qubits)",
            self.rows,
        )


def run_gen_adder(
    bits: int = 8,
    kind: str = "cuccaro",
    mids: Sequence[float] = (1.0, 2.0, 3.0, 5.0),
) -> GeneratedAdderResult:
    """Ripple-carry or Fourier-space adder at arbitrary operand width."""
    if kind == "cuccaro":
        circuit = cuccaro_adder(bits)
    elif kind == "qft":
        circuit = qft_adder(bits)
    else:
        raise ValueError(
            f"unknown adder kind {kind!r}; expected 'cuccaro' or 'qft'"
        )
    return GeneratedAdderResult(
        kind=kind, bits=int(bits), num_qubits=circuit.num_qubits,
        rows=_sweep_mids(circuit, mids, f"gen-adder-{kind}"),
    )


register_experiment(
    name="gen-adder",
    runner=run_gen_adder,
    result_type=GeneratedAdderResult,
    quick=dict(bits=2, mids=(1.0, 3.0)),
    doc="Generated family: adders at arbitrary operand width",
)


@dataclass
class GeneratedRandomResult(ExperimentResult):
    num_qubits: int = 0
    num_gates: int = 0
    rng: int = 0
    rows: Tuple[MetricsRow, ...] = ()

    def format(self) -> str:
        return _format_rows(
            f"Generated random program — {self.num_qubits} qubits, "
            f"{self.num_gates} gates, seed {self.rng}",
            self.rows,
        )


def run_gen_random(
    num_qubits: int = 16,
    num_gates: int = 80,
    arity_weights: Sequence[float] = (0.3, 0.5, 0.2),
    mids: Sequence[float] = (1.0, 2.0, 3.0, 5.0),
    rng: int = 0,
) -> GeneratedRandomResult:
    """A structurally random program (seeded, reproducible)."""
    circuit = random_circuit(num_qubits, num_gates,
                             arity_weights=tuple(arity_weights), rng=rng)
    return GeneratedRandomResult(
        num_qubits=int(num_qubits), num_gates=int(num_gates), rng=int(rng),
        rows=_sweep_mids(circuit, mids, "gen-random"),
    )


register_experiment(
    name="gen-random",
    runner=run_gen_random,
    result_type=GeneratedRandomResult,
    quick=dict(num_qubits=6, num_gates=18, mids=(1.0, 3.0)),
    doc="Generated family: random-structure programs",
)
