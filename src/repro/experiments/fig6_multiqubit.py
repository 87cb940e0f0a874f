"""Fig 6 — native multiqubit gates vs decomposition.

CNU and Cuccaro are written natively in Toffoli gates.  Compiling them
with ``native_max_arity=3`` executes each Toffoli in one Rydberg step;
with ``native_max_arity=2`` every Toffoli is lowered to its 6-CNOT
decomposition before mapping.  The figure plots gate count and depth vs
MID for both modes — native wins by a large margin everywhere.

At MID 1 three atoms cannot be pairwise within range, so the "native"
configuration also decomposes there (the paper makes the same point in
§IV-B); the curves therefore coincide at MID 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.architectures import compiled_metrics, metrics_grid_map
from repro.api.registry import register_experiment
from repro.api.results import ExperimentResult
from repro.api.serialize import serializable
from repro.experiments.common import mids_or_default, na_arch_for_mid
from repro.utils.textplot import format_table


@serializable
@dataclass(frozen=True)
class MultiqubitPoint:
    benchmark: str
    size: int
    mid: float
    native_gates: int
    decomposed_gates: int
    native_depth: int
    decomposed_depth: int

    @property
    def gate_ratio(self) -> float:
        return self.decomposed_gates / max(1, self.native_gates)

    @property
    def depth_ratio(self) -> float:
        return self.decomposed_depth / max(1, self.native_depth)


@dataclass
class Fig6Result(ExperimentResult):
    points: List[MultiqubitPoint] = field(default_factory=list)

    def format(self) -> str:
        lines = ["Fig 6 — Native 3-Qubit Gates vs Decomposition",
                 "(solid = native Toffoli, dashed = decomposed to 2q)", ""]
        rows = [
            (p.benchmark, p.size, f"{p.mid:g}", p.native_gates,
             p.decomposed_gates, f"{p.gate_ratio:.2f}x",
             p.native_depth, p.decomposed_depth, f"{p.depth_ratio:.2f}x")
            for p in self.points
        ]
        lines.append(format_table(
            ["benchmark", "size", "MID", "gates(nat)", "gates(dec)",
             "gate ratio", "depth(nat)", "depth(dec)", "depth ratio"],
            rows,
        ))
        return "\n".join(lines)

    def select(self, benchmark: str, size: int, mid: float) -> MultiqubitPoint:
        for p in self.points:
            if (p.benchmark == benchmark and p.size == size
                    and abs(p.mid - mid) < 1e-9):
                return p
        raise KeyError((benchmark, size, mid))


def run(
    sizes: Optional[Sequence[int]] = None,
    mids: Optional[Sequence[float]] = None,
    benchmarks: Sequence[str] = ("cnu", "cuccaro"),
) -> Fig6Result:
    """Regenerate Fig 6 (paper sizes: ~19..94 for CNU, ~14..94 Cuccaro)."""
    sizes = list(sizes) if sizes is not None else [20, 40, 60, 94]
    mids = mids_or_default(mids)
    result = Fig6Result()
    metrics_grid_map(
        (benchmark, size, na_arch_for_mid(mid, native_max_arity=arity), 0)
        for benchmark in benchmarks
        for size in sizes
        for mid in [1.0] + list(mids)
        for arity in (3, 2)
    )
    for benchmark in benchmarks:
        for size in sizes:
            for mid in [1.0] + list(mids):
                native = compiled_metrics(
                    benchmark, size, na_arch_for_mid(mid, native_max_arity=3)
                )
                decomposed = compiled_metrics(
                    benchmark, size, na_arch_for_mid(mid, native_max_arity=2)
                )
                result.points.append(
                    MultiqubitPoint(
                        benchmark=benchmark,
                        size=native.num_qubits,
                        mid=mid,
                        native_gates=native.gate_count,
                        decomposed_gates=decomposed.gate_count,
                        native_depth=native.depth,
                        decomposed_depth=decomposed.depth,
                    )
                )
    return result


SPEC = register_experiment(
    name="fig6",
    runner=run,
    result_type=Fig6Result,
    quick=dict(sizes=(16, 30), mids=(2.0, 3.0)),
)
