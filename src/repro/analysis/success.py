"""Success-rate analysis (Figs 7-8).

Fig 7: for fixed-size programs, sweep the two-qubit physical error rate
and plot the program's predicted error rate (1 - success).  The headline
is *where each architecture diverges from the all-noise outcome* — NA
diverges at higher physical error because its compiled programs have far
fewer two-qubit gate opportunities.

Fig 8: invert the question — at each physical error rate, what is the
largest program size that still succeeds with probability >= 2/3?
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.architectures import Architecture, compiled_metrics
from repro.analysis.metrics import ProgramMetrics
from repro.api.serialize import serializable
from repro.core.errors import CompilationError
from repro.workloads.registry import get_benchmark

#: Fig 8's success threshold.
SIZE_THRESHOLD = 2.0 / 3.0


def error_sweep(points: int = 17) -> List[float]:
    """The paper's two-qubit error sweep: 1e-5 .. 1e-1, log-spaced."""
    return list(np.logspace(-5, -1, points))


def success_curve(
    metrics: ProgramMetrics,
    arch: Architecture,
    errors: Sequence[float],
) -> List[Tuple[float, float]]:
    """(two-qubit error, program error rate) pairs for one program."""
    curve = []
    for error in errors:
        noise = arch.noise(two_qubit_error=error)
        curve.append((error, metrics.error_rate(noise)))
    return curve


@serializable
@dataclass
class SuccessComparison:
    """Fig 7 data for one benchmark: NA and SC curves side by side."""

    benchmark: str
    num_qubits_na: int
    num_qubits_sc: int
    na_curve: List[Tuple[float, float]]
    sc_curve: List[Tuple[float, float]]

    def divergence_error(self, margin: float = 0.05) -> Tuple[float, float]:
        """Largest physical error at which each curve's program error drops
        below ``1 - margin`` (i.e. diverges from certain failure).

        Returns (na_error, sc_error); NA diverging at a *higher* physical
        error is the paper's claim.
        """
        def threshold(curve):
            viable = [err for err, program_err in curve
                      if program_err < 1.0 - margin]
            return max(viable) if viable else 0.0
        return threshold(self.na_curve), threshold(self.sc_curve)


def compare_architectures(
    benchmark: str,
    num_qubits: int,
    na_arch: Architecture,
    sc_arch: Architecture,
    errors: Optional[Sequence[float]] = None,
) -> SuccessComparison:
    """Fig 7 rows for one benchmark at one size."""
    errors = list(errors) if errors is not None else error_sweep()
    na_metrics = compiled_metrics(benchmark, num_qubits, na_arch)
    sc_metrics = compiled_metrics(benchmark, num_qubits, sc_arch)
    return SuccessComparison(
        benchmark=benchmark,
        num_qubits_na=na_metrics.num_qubits,
        num_qubits_sc=sc_metrics.num_qubits,
        na_curve=success_curve(na_metrics, na_arch, errors),
        sc_curve=success_curve(sc_metrics, sc_arch, errors),
    )


def valid_sizes(benchmark: str, max_size: int, step: int = 5) -> List[int]:
    """Distinct realizable sizes of ``benchmark`` up to ``max_size``.

    Walks the requested grid and deduplicates through each family's own
    size-rounding lattice (e.g. Cuccaro only realizes sizes 2n+2) —
    via :meth:`Benchmark.realized_size`, so no circuit is built.
    """
    bench = get_benchmark(benchmark)
    sizes = []
    seen = set()
    for requested in range(max(bench.min_size, step), max_size + 1, step):
        realized = bench.realized_size(requested)
        if realized not in seen:
            seen.add(realized)
            sizes.append(requested)
    return sizes


def _ladder_metrics_task(task: dict) -> Optional[ProgramMetrics]:
    """Sweep-engine worker: compile one size-ladder rung, or None when
    the size does not compile on the architecture (module-level and
    picklable for spawn-based workers)."""
    try:
        return compiled_metrics(task["benchmark"], task["num_qubits"],
                                task["arch"])
    except CompilationError:
        return None


def _serial_ladder(
    benchmark: str, arch: Architecture, sizes: Sequence[int]
) -> List[ProgramMetrics]:
    """Compile rungs in order, stopping at the first failure — no work
    is spent past a size that cannot compile."""
    ladder: List[ProgramMetrics] = []
    for size in sizes:
        metrics = _ladder_metrics_task(
            {"benchmark": benchmark, "num_qubits": size, "arch": arch}
        )
        if metrics is None:
            break
        ladder.append(metrics)
    return ladder


def size_ladder_grid_map(
    cells: Sequence[Tuple[str, Architecture, Sequence[int]]],
) -> List[List[ProgramMetrics]]:
    """Compile several size ladders through one sweep-engine fan-out.

    ``cells`` is a sequence of ``(benchmark, arch, sizes)``; the result
    holds one ladder per cell, each truncated at (excluding) its first
    size that fails to compile — the serial break-at-first-error
    semantics of :func:`_serial_ladder` — so curves built from
    the ladders are identical at any worker count.  Single-job runs keep
    the short-circuit (nothing past a failing rung compiles); parallel
    runs trade speculative compilation of later rungs for wall-clock,
    and batching every cell into one ``run_tasks`` call pays the spawn
    pool's startup once instead of per ladder.
    """
    from repro.api.session import current_session
    from repro.exec.engine import run_tasks

    if current_session().jobs == 1:
        return [_serial_ladder(benchmark, arch, sizes)
                for benchmark, arch, sizes in cells]
    tasks: List[dict] = []
    spans = []
    for benchmark, arch, sizes in cells:
        start = len(tasks)
        tasks.extend(
            {"benchmark": benchmark, "num_qubits": size, "arch": arch}
            for size in sizes
        )
        spans.append((start, len(tasks)))
    results = run_tasks(_ladder_metrics_task, tasks)
    ladders: List[List[ProgramMetrics]] = []
    for start, end in spans:
        ladder: List[ProgramMetrics] = []
        for metrics in results[start:end]:
            if metrics is None:
                break
            ladder.append(metrics)
        ladders.append(ladder)
    return ladders


def largest_runnable_from(
    ladder: Sequence[ProgramMetrics],
    arch: Architecture,
    two_qubit_error: float,
    threshold: float = SIZE_THRESHOLD,
) -> int:
    """Fig 8's y-value from precompiled ladder metrics."""
    noise = arch.noise(two_qubit_error=two_qubit_error)
    best = 1
    for metrics in ladder:
        if metrics.success_rate(noise) >= threshold:
            best = max(best, metrics.num_qubits)
    return best


def calibrate_two_qubit_error(
    metrics: ProgramMetrics,
    noise_family_builder,
    target_success: float = 0.6,
    low: float = 1e-7,
    high: float = 0.2,
) -> float:
    """Find the two-qubit error making ``metrics`` succeed at ``target``.

    Used by Fig 11, which chooses an error rate "corresponding to
    approximately 0.6 success rate to begin with".  ``noise_family_builder``
    maps an error to a NoiseModel (e.g. ``NoiseModel.neutral_atom``).
    Bisection on the log-error axis.
    """
    def success_at(error: float) -> float:
        return metrics.success_rate(noise_family_builder(error))

    if success_at(low) < target_success:
        raise ValueError("program cannot reach the target success even at "
                         f"error {low}")
    if success_at(high) > target_success:
        return high
    log_lo, log_hi = math.log(low), math.log(high)
    for _ in range(60):
        mid = 0.5 * (log_lo + log_hi)
        if success_at(math.exp(mid)) >= target_success:
            log_lo = mid
        else:
            log_hi = mid
    return math.exp(log_lo)
