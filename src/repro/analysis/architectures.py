"""The two architectures every figure compares.

* **NA** — 10x10 neutral-atom grid, MID sweepable (default 3), restriction
  zones ``f(d) = d/2``, native 3-qubit gates, neutral-atom noise.
* **SC** — the superconducting baseline: same grid, MID 1, no zones,
  everything decomposed to 1-2 qubit gates, IBM-Rome-era noise.

Compiled metrics are memoized on the active session's compile cache
(``CompileCache.metrics_memo``), not process-wide: the figure drivers
hit the same (benchmark, size, architecture) points repeatedly, and
compiled metrics are deterministic.  ``metrics_grid_map`` fans a batch
of points out over the sweep engine so the serial driver code that
follows finds everything already memoized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.metrics import ProgramMetrics
from repro.core.config import CompilerConfig
from repro.exec.cache import cached_compile, get_cache
from repro.hardware.noise import NoiseModel
from repro.hardware.topology import Topology
from repro.workloads.ref import resolve_circuit

#: The paper's device (§III-C): a 10x10 atom array.
DEFAULT_GRID_SIDE = 10

#: The MIDs the paper's bar charts use, plus 1 as the SC-like baseline.
PAPER_MIDS = (2.0, 3.0, 4.0, 5.0, 8.0, 13.0)


@dataclass(frozen=True)
class Architecture:
    """A named (device, compiler policy, noise family) triple."""

    name: str
    grid_side: int
    mid: float
    restriction_radius: str
    native_max_arity: int
    noise_family: str  # "na" or "sc"

    def config(self) -> CompilerConfig:
        return CompilerConfig(
            max_interaction_distance=self.mid,
            restriction_radius=self.restriction_radius,
            native_max_arity=self.native_max_arity,
        )

    def topology(self) -> Topology:
        return Topology.square(self.grid_side, self.mid)

    def noise(self, two_qubit_error: Optional[float] = None) -> NoiseModel:
        if self.noise_family == "sc":
            return NoiseModel.superconducting_rome(two_qubit_error)
        if self.noise_family == "ti":
            return NoiseModel.trapped_ion(two_qubit_error)
        return NoiseModel.neutral_atom(two_qubit_error)


def neutral_atom_arch(
    mid: float = 3.0,
    grid_side: int = DEFAULT_GRID_SIDE,
    native_max_arity: int = 3,
    restriction_radius: str = "half",
) -> Architecture:
    return Architecture(
        name=f"na-mid{mid:g}",
        grid_side=grid_side,
        mid=mid,
        restriction_radius=restriction_radius,
        native_max_arity=native_max_arity,
        noise_family="na",
    )


def superconducting_arch(grid_side: int = DEFAULT_GRID_SIDE) -> Architecture:
    return Architecture(
        name="sc-mid1",
        grid_side=grid_side,
        mid=1.0,
        restriction_radius="none",
        native_max_arity=2,
        noise_family="sc",
    )


def trapped_ion_arch(
    grid_side: int = DEFAULT_GRID_SIDE, native_max_arity: int = 3
) -> Architecture:
    """Single-trap trapped-ion comparator (the paper's Discussion).

    All-to-all connectivity (MID = device diagonal, so routing inserts no
    SWAPs) and native multiqubit gates, but a device-wide restriction
    zone: the shared phonon bus serializes entangling gates completely.
    """
    import math

    diagonal = math.hypot(grid_side - 1, grid_side - 1)
    return Architecture(
        name="ti-global",
        grid_side=grid_side,
        mid=diagonal,
        restriction_radius="global",
        native_max_arity=native_max_arity,
        noise_family="ti",
    )


#: One compilation point: (benchmark, num_qubits, arch) or
#: (benchmark, num_qubits, arch, rng_seed).
MetricPoint = Tuple


def _point_key(point: MetricPoint) -> Tuple:
    benchmark, num_qubits, arch = point[0], point[1], point[2]
    rng_seed = point[3] if len(point) > 3 else 0
    return (benchmark, num_qubits, arch, rng_seed)


def compiled_metrics(
    benchmark: str,
    num_qubits: int,
    arch: Architecture,
    rng_seed: int = 0,
) -> ProgramMetrics:
    """Compile (cached) and summarize one workload instance on one arch.

    ``benchmark`` is any workload reference — a named family (sized by
    ``num_qubits``), ``"family@size"``, or an uploaded ``circuit:<digest>``
    resolved through the active session's circuit store — all sourced
    through the one :func:`repro.workloads.ref.resolve_circuit` seam.
    """
    memo = get_cache().metrics_memo
    key = (benchmark, num_qubits, arch, rng_seed)
    if key not in memo:
        circuit = resolve_circuit(benchmark, num_qubits, rng=rng_seed)
        program = cached_compile(circuit, arch.topology(), arch.config())
        memo[key] = ProgramMetrics.from_program(program, benchmark=benchmark)
    return memo[key]


def _metrics_task(task: Dict) -> ProgramMetrics:
    """Sweep-engine worker: compile one point (module-level, picklable)."""
    return compiled_metrics(
        task["benchmark"], task["num_qubits"], task["arch"], task["rng_seed"]
    )


def metrics_grid_map(
    points: Iterable[MetricPoint], jobs: Optional[int] = None
) -> None:
    """Compile a batch of points as one task grid and prime the metrics
    memo — the exec-engine route every compiled-metrics figure driver
    takes before its serial aggregation pass.

    Compilation is deterministic (the grid seeds go unused), so fanning
    points out over worker processes and importing the results is
    indistinguishable from compiling them serially — only faster.
    Points already cached are skipped; duplicates are deduplicated.
    """
    from repro.exec.grid import grid_map

    memo = get_cache().metrics_memo
    pending: List[Tuple] = []
    seen = set()
    for point in points:
        key = _point_key(point)
        if key in memo or key in seen:
            continue
        seen.add(key)
        pending.append(key)
    if not pending:
        return
    cells = [
        {"benchmark": b, "num_qubits": n, "arch": a, "rng_seed": s}
        for b, n, a, s in pending
    ]
    for key, metrics in zip(
        pending, grid_map(_metrics_task, cells, experiment="metrics",
                          jobs=jobs)
    ):
        memo[key] = metrics


def savings_points(
    benchmark: str,
    sizes: Sequence[int],
    archs: Sequence[Architecture],
) -> List[MetricPoint]:
    """The flat (benchmark x size x arch) grid behind a savings chart."""
    return [(benchmark, size, arch, 0) for size in sizes for arch in archs]
