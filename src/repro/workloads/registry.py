"""Benchmark registry: name -> sized circuit generator.

Experiment drivers ask for "Cuccaro at ~50 qubits"; each benchmark has its
own valid-size lattice (the adders need ``2n + 2`` qubits, CNU needs
``2k``), so the registry rounds a requested size down to the nearest valid
one and reports what it actually built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.circuits.circuit import Circuit
from repro.utils.rng import RngLike
from repro.workloads.bv import bernstein_vazirani
from repro.workloads.cnu import cnu_from_total_qubits
from repro.workloads.cuccaro import cuccaro_from_total_qubits
from repro.workloads.qaoa import qaoa_maxcut
from repro.workloads.qft_adder import qft_adder_from_total_qubits


@dataclass(frozen=True)
class Benchmark:
    """A named, size-parameterized benchmark family."""

    name: str
    build: Callable[[int, RngLike], Circuit]
    min_size: int
    #: Human note on which sizes are exactly realizable.
    size_rule: str
    #: Whether the paper writes this benchmark natively in Toffoli gates.
    uses_multiqubit_gates: bool
    #: Whether the instance depends on a random seed (QAOA graphs).
    randomized: bool = False
    #: The size-rounding lattice: requested size -> the size actually
    #: built (``None`` means every size >= ``min_size`` is exact).  This
    #: is the machine-checkable form of ``size_rule``.
    realize: Optional[Callable[[int], int]] = None

    def realized_size(self, num_qubits: int) -> int:
        """The register size :meth:`circuit` will actually build.

        ``Benchmark.circuit`` rounds a requested size *down* to the
        family's nearest valid size (Cuccaro ``2n+2``, CNU ``2k``, ...);
        this reports that rounding without building anything.
        """
        if num_qubits < self.min_size:
            raise ValueError(
                f"{self.name} needs at least {self.min_size} qubits, "
                f"requested {num_qubits}"
            )
        if self.realize is None:
            return num_qubits
        return self.realize(num_qubits)

    def circuit(self, num_qubits: int, rng: RngLike = 0) -> Circuit:
        if num_qubits < self.min_size:
            raise ValueError(
                f"{self.name} needs at least {self.min_size} qubits, "
                f"requested {num_qubits}"
            )
        return self.build(num_qubits, rng)


def _build_bv(num_qubits: int, rng: RngLike) -> Circuit:
    return bernstein_vazirani(num_qubits)


def _build_cnu(num_qubits: int, rng: RngLike) -> Circuit:
    return cnu_from_total_qubits(num_qubits)


def _build_cuccaro(num_qubits: int, rng: RngLike) -> Circuit:
    return cuccaro_from_total_qubits(num_qubits)


def _build_qft_adder(num_qubits: int, rng: RngLike) -> Circuit:
    return qft_adder_from_total_qubits(num_qubits)


def _build_qaoa(num_qubits: int, rng: RngLike) -> Circuit:
    return qaoa_maxcut(num_qubits, rng=rng)


BENCHMARKS: Dict[str, Benchmark] = {
    "bv": Benchmark(
        name="bv",
        build=_build_bv,
        min_size=2,
        size_rule="any size >= 2 (n-1 data qubits + ancilla)",
        uses_multiqubit_gates=False,
    ),
    "cnu": Benchmark(
        name="cnu",
        build=_build_cnu,
        min_size=4,
        size_rule="even sizes 2k (k controls, k-1 ancillas, 1 target)",
        uses_multiqubit_gates=True,
        realize=lambda n: 2 * (n // 2),
    ),
    "cuccaro": Benchmark(
        name="cuccaro",
        build=_build_cuccaro,
        min_size=4,
        size_rule="sizes 2n+2 (two n-bit registers, carry-in, carry-out)",
        uses_multiqubit_gates=True,
        realize=lambda n: 2 * ((n - 2) // 2) + 2,
    ),
    "qft-adder": Benchmark(
        name="qft-adder",
        build=_build_qft_adder,
        min_size=2,
        size_rule="even sizes 2n (two n-bit registers)",
        uses_multiqubit_gates=False,
        realize=lambda n: 2 * (n // 2),
    ),
    "qaoa": Benchmark(
        name="qaoa",
        build=_build_qaoa,
        min_size=2,
        size_rule="any size >= 2 (one node per qubit)",
        uses_multiqubit_gates=False,
        randomized=True,
    ),
}

#: The display order used by the paper's bar charts.
BENCHMARK_ORDER: List[str] = ["bv", "cnu", "cuccaro", "qft-adder", "qaoa"]


def get_benchmark(name: str) -> Benchmark:
    key = name.lower()
    if key not in BENCHMARKS:
        raise KeyError(
            f"unknown benchmark {name!r}; available: {sorted(BENCHMARKS)}"
        )
    return BENCHMARKS[key]


def build_circuit(name: str, num_qubits: int, rng: RngLike = 0) -> Circuit:
    """Convenience wrapper: build benchmark ``name`` at ``num_qubits``."""
    return get_benchmark(name).circuit(num_qubits, rng=rng)
