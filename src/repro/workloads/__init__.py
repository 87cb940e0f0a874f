"""Parameterized benchmark circuits from the paper's §III-B suite."""

from repro.workloads.bv import bernstein_vazirani
from repro.workloads.cnu import cnu, cnu_from_total_qubits, cnu_registers
from repro.workloads.cuccaro import (
    cuccaro_adder,
    cuccaro_from_total_qubits,
    cuccaro_registers,
)
from repro.workloads.qaoa import cut_value, qaoa_maxcut, random_graph
from repro.workloads.qft_adder import qft, qft_adder, qft_adder_from_total_qubits
from repro.workloads.random_circuits import random_circuit
from repro.workloads.ref import WorkloadRef, iter_circuit_digests, resolve_circuit
from repro.workloads.registry import (
    BENCHMARK_ORDER,
    BENCHMARKS,
    Benchmark,
    build_circuit,
    get_benchmark,
)

__all__ = [
    "BENCHMARKS",
    "BENCHMARK_ORDER",
    "Benchmark",
    "WorkloadRef",
    "iter_circuit_digests",
    "resolve_circuit",
    "bernstein_vazirani",
    "build_circuit",
    "cnu",
    "cnu_from_total_qubits",
    "cnu_registers",
    "cuccaro_adder",
    "cuccaro_from_total_qubits",
    "cuccaro_registers",
    "cut_value",
    "get_benchmark",
    "qaoa_maxcut",
    "qft",
    "qft_adder",
    "qft_adder_from_total_qubits",
    "random_graph",
    "random_circuit",
]
