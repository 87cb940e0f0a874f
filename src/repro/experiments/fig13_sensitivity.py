"""Fig 13 — sensitivity to the atom-loss rate.

For Compile Small + Reroute, sweep a technology-improvement factor over
the loss rates (0.1x worse to 100x better than today's 2% measurement /
0.68% vacuum loss) and measure the successful shots achieved between
consecutive reloads.  The paper's observation — a 10x loss improvement
yields ~10x more shots per reload — falls out of the geometric structure
of the process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.api.registry import register_experiment
from repro.api.results import ExperimentResult
from repro.exec.keys import derive_seed, task_key
from repro.hardware.loss import LossModel
from repro.loss.runner import ShotSpec, run_shot_specs
from repro.utils.rng import RngLike, base_seed_from
from repro.utils.textplot import format_series

GRID_SIDE = 10
PROGRAM_SIZE = 30
FIG13_MIDS = (3.0, 4.0, 5.0, 6.0)


def improvement_factors(points: int = 7) -> List[float]:
    """Log-spaced improvement factors, 0.1x (worse) to 100x (better)."""
    return list(np.logspace(-1, 2, points))


@dataclass
class Fig13Result(ExperimentResult):
    #: (mid, factor) -> mean successful shots between reloads.
    shots_before_reload: Dict[Tuple[float, float], float] = field(
        default_factory=dict
    )

    def format(self) -> str:
        lines = ["Fig 13 — Successful Shots Before Reload vs Loss-Rate "
                 "Improvement (Compile Small + Reroute)", ""]
        mids = sorted({m for m, _ in self.shots_before_reload})
        for mid in mids:
            factors = sorted(
                f for m, f in self.shots_before_reload if abs(m - mid) < 1e-9
            )
            ys = [self.shots_before_reload[(mid, f)] for f in factors]
            lines.append(format_series(f"  MID {mid:g}", factors, ys))
        return "\n".join(lines)

    def series(self, mid: float) -> List[Tuple[float, float]]:
        return sorted(
            (f, v) for (m, f), v in self.shots_before_reload.items()
            if abs(m - mid) < 1e-9
        )


def run(
    benchmark: str = "cnu",
    mids: Sequence[float] = FIG13_MIDS,
    factors: Sequence[float] = None,
    shots_per_run: int = 400,
    program_size: int = PROGRAM_SIZE,
    rng: RngLike = 0,
) -> Fig13Result:
    """Regenerate Fig 13 (the (MID x factor) grid via the sweep engine)."""
    factors = list(factors) if factors is not None else improvement_factors()
    base_seed = base_seed_from(rng)
    result = Fig13Result()
    cells = []
    for mid in mids:
        for factor in factors:
            key = task_key(experiment="fig13", benchmark=benchmark,
                           mid=float(mid), factor=float(factor),
                           program_size=program_size, shots=shots_per_run)
            cells.append((mid, factor, ShotSpec(
                strategy="c. small+reroute",
                benchmark=benchmark,
                program_size=program_size,
                grid_side=GRID_SIDE,
                mid=float(mid),
                max_shots=shots_per_run,
                seed=derive_seed(key, base=base_seed),
                loss_model=LossModel.lossless_readout(
                    improvement_factor=factor
                ),
            )))
    for (mid, factor, _), run_result in zip(
        cells, run_shot_specs([spec for _, _, spec in cells])
    ):
        result.shots_before_reload[(mid, factor)] = (
            run_result.mean_shots_between_reloads
        )
    return result


SPEC = register_experiment(
    name="fig13",
    runner=run,
    result_type=Fig13Result,
    quick=dict(mids=(4.0,), factors=(1.0, 10.0), shots_per_run=150,
               program_size=20),
)
