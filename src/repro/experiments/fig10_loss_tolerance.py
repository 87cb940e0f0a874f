"""Fig 10 — maximum atom-loss tolerance per strategy.

30-qubit programs (CNU, Cuccaro) on a 100-atom device: how many atoms can
be lost, one uniform-random atom at a time, before each strategy must
reload?  Reported as a fraction of device size vs MID in {2..6}.

Expected ordering (all reproduced): recompile >> compile-small variants >
reroute > virtual remapping, with recompile approaching the 70% ideal
(1 - program/device) once the MID bridges holes.  Compile-small has no
entries at MID 2 (it never compiles to distance 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.api.registry import register_experiment
from repro.api.results import ExperimentResult
from repro.core.config import CompilerConfig
from repro.exec.grid import grid_map
from repro.loss.strategies import STRATEGY_ORDER, make_strategy
from repro.loss.tolerance import ToleranceResult, max_loss_tolerance
from repro.utils.rng import RngLike, base_seed_from
from repro.utils.textplot import format_table, percent
from repro.workloads.registry import build_circuit

GRID_SIDE = 10
PAPER_LOSS_MIDS = (2.0, 3.0, 4.0, 5.0, 6.0)
PROGRAM_SIZE = 30


@dataclass
class Fig10Result(ExperimentResult):
    #: (benchmark, strategy, mid) -> tolerance result.
    cells: Dict[Tuple[str, str, float], ToleranceResult] = field(
        default_factory=dict
    )

    def fraction(self, benchmark: str, strategy: str, mid: float) -> float:
        return self.cells[(benchmark, strategy, mid)].mean_fraction

    def format(self) -> str:
        lines = ["Fig 10 — Max Atom Loss Tolerance (fraction of device size)",
                 f"({PROGRAM_SIZE}-qubit programs on a "
                 f"{GRID_SIDE * GRID_SIDE}-atom device)", ""]
        benchmarks = sorted({b for b, _, _ in self.cells})
        for benchmark in benchmarks:
            lines.append(f"benchmark: {benchmark}")
            mids = sorted({m for b, _, m in self.cells if b == benchmark})
            rows = []
            for strategy in STRATEGY_ORDER:
                row = [strategy]
                for mid in mids:
                    key = (benchmark, strategy, mid)
                    row.append(
                        percent(self.cells[key].mean_fraction)
                        if key in self.cells else "-"
                    )
                rows.append(row)
            lines.append(format_table(
                ["strategy"] + [f"MID {m:g}" for m in mids], rows))
            lines.append("")
        return "\n".join(lines)


def _tolerance_task(task: dict) -> ToleranceResult:
    """Sweep-engine worker: one (benchmark, strategy, MID) tolerance cell."""
    circuit = build_circuit(task["benchmark"], task["program_size"])
    return max_loss_tolerance(
        make_strategy(task["strategy"]),
        circuit,
        task["grid_side"],
        task["mid"],
        config=CompilerConfig(max_interaction_distance=task["mid"]),
        trials=task["trials"],
        rng=task["seed"],
    )


def run(
    benchmarks: Sequence[str] = ("cnu", "cuccaro"),
    mids: Optional[Sequence[float]] = None,
    program_size: int = PROGRAM_SIZE,
    strategies: Optional[Sequence[str]] = None,
    trials: int = 5,
    rng: RngLike = 0,
) -> Fig10Result:
    """Regenerate Fig 10 (cells fanned out over the sweep engine).

    The explicit ``key_fields`` pin the historical seed schema:
    ``grid_side`` rides along to the task function but stays out of the
    canonical key, keeping every cell's random stream byte-compatible
    with the seed CLI fixtures.
    """
    mids = list(mids) if mids is not None else list(PAPER_LOSS_MIDS)
    strategies = (
        list(strategies) if strategies is not None else list(STRATEGY_ORDER)
    )
    result = Fig10Result()
    cells = [
        {
            "benchmark": benchmark,
            "strategy": name,
            "mid": float(mid),
            "program_size": program_size,
            "grid_side": GRID_SIDE,
            "trials": trials,
        }
        for benchmark in benchmarks
        for mid in mids
        for name in strategies
        # compile-small undefined at MID 2 (paper too)
        if not (name.startswith("c") and "small" in name and mid <= 2.0)
    ]
    tolerances = grid_map(
        _tolerance_task, cells, experiment="fig10",
        base_seed=base_seed_from(rng),
        key_fields=("benchmark", "strategy", "mid", "program_size", "trials"),
    )
    for cell, tolerance in zip(cells, tolerances):
        result.cells[(cell["benchmark"], cell["strategy"], cell["mid"])] = \
            tolerance
    return result


SPEC = register_experiment(
    name="fig10",
    runner=run,
    result_type=Fig10Result,
    quick=dict(mids=(2.0, 3.0), program_size=20, trials=2),
)
