"""``loss``: loss-tolerance trials and shot runs under the five strategies.

One round runs, for every strategy, for ``cnu`` and ``cuccaro`` at 20
qubits, and for every MID from 2 to 5 the strategy supports (compile
small needs 3), one single-trial ``max_loss_tolerance`` (Fig 10), and
for the four strategies of Fig 12 one 200-shot ``ShotRunner.run``.  Like
the paper's Fig 12, shot runs leave out full recompilation: its shot
runs cost several times the rest of the round together.  The RNG seed of every op derives
from (run seed, round, op), so each round draws fresh loss patterns and
a run averages over many of them.

The pristine programs are compiled into the workload's own ``Session``
during set-up, so timed ops pay only for coping: remaps, reroutes,
recompiles on hole-riddled grids (BFS fallbacks, stalled schedules),
reloads and shot sampling.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import Op
from layers import STRATEGY_SLUGS, add_core_probes, core_metrics
from probe import LayerView, Probe

import repro.loss.strategies.recompile as recompile_module
from repro.api.session import Session
from repro.core.config import CompilerConfig
from repro.hardware.loss import ShotLossSampler
from repro.hardware.topology import Topology
from repro.loss.runner import ShotRunner
from repro.loss.strategies import (STRATEGY_ORDER, AlwaysRecompile,
                                   VirtualRemap, make_strategy)
from repro.loss.tolerance import max_loss_tolerance
from repro.workloads.registry import get_benchmark

GRID_SIDE = 10
PROGRAM_SIZE = 20
BENCHMARKS = ("cnu", "cuccaro")
SHOTS = 200
#: Compile-small compiles at a reduced MID and needs a true MID of 3.
LOWEST_MID = {"compile small": 3.0, "c. small+reroute": 3.0}
SHOT_STRATEGIES = ("virtual remapping", "reroute", "compile small",
                   "c. small+reroute")


def configurations() -> List[Tuple[str, str, float]]:
    return [(strategy, benchmark, mid)
            for strategy in STRATEGY_ORDER
            for benchmark in BENCHMARKS
            for mid in (2.0, 3.0, 4.0, 5.0)
            if mid >= LOWEST_MID.get(strategy, 2.0)]


def generated_swaps(strategy) -> int:
    """SWAPs in the program as adapted: recompiled SWAPs plus fixups."""
    return strategy.program.swap_count + strategy.added_swaps


class Workload:
    name = "loss"

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self.session: Optional[Session] = None
        self._activation = None
        self.circuits = {}
        self.first_round: Dict[str, int] = {}

    def setup(self) -> None:
        self.session = Session(
            circuit_dir=os.path.join(self.scratch, "loss-circuits"))
        self._activation = self.session.activate()
        self._activation.__enter__()
        self.circuits = {name: get_benchmark(name).circuit(PROGRAM_SIZE)
                         for name in BENCHMARKS}
        for strategy, benchmark, mid in configurations():
            make_strategy(strategy).begin(
                self.circuits[benchmark], Topology.square(GRID_SIDE, mid),
                CompilerConfig(max_interaction_distance=mid))
        self.first_round = {"swaps": 0, "losses": 0}

    def teardown(self) -> None:
        if self._activation is not None:
            self._activation.__exit__(None, None, None)
            self._activation = None
        self.session = None

    def _rng(self, round_index: int, op_index: int) -> int:
        sequence = np.random.SeedSequence([self.seed, round_index, op_index])
        return int(sequence.generate_state(1)[0])

    def ops(self, round_index: int, traced: bool) -> List[Op]:
        ops = []
        for index, (strategy, benchmark, mid) in enumerate(configurations()):
            circuit = self.circuits[benchmark]
            ops.append(Op("tolerance",
                          partial(self._tolerance, strategy, circuit, mid,
                                  self._rng(round_index, 2 * index)),
                          partial(self._check_tolerance, round_index,
                                  circuit)))
            if strategy not in SHOT_STRATEGIES:
                continue
            ops.append(Op("shots",
                          partial(self._shots, strategy, circuit, mid,
                                  self._rng(round_index, 2 * index + 1)),
                          partial(self._check_shots, round_index)))
        return ops

    @staticmethod
    def _tolerance(name, circuit, mid, rng):
        strategy = make_strategy(name)
        result = max_loss_tolerance(strategy, circuit, GRID_SIDE, mid,
                                    trials=1, rng=rng)
        return strategy, result

    @staticmethod
    def _shots(name, circuit, mid, rng):
        strategy = make_strategy(name)
        runner = ShotRunner(strategy, circuit,
                            Topology.square(GRID_SIDE, mid), rng=rng)
        return strategy, runner.run(max_shots=SHOTS)

    def _check_tolerance(self, round_index, circuit, output) -> Optional[str]:
        strategy, result = output
        spare = result.device_sites - circuit.num_qubits
        sustained = result.losses_sustained
        if len(sustained) != 1 or not 0 <= sustained[0] <= spare:
            # Even recompilation cannot outlive the spare atoms: the
            # paper's 1 - program/device bound.
            return (f"{strategy.name} sustained {sustained} losses with "
                    f"{spare} spare atoms")
        if round_index == 0:
            self.first_round["losses"] += sustained[0]
            self.first_round["swaps"] += generated_swaps(strategy)
        return None

    def _check_shots(self, round_index, output) -> Optional[str]:
        strategy, result = output
        if result.shots_attempted != SHOTS:
            return f"{strategy.name} attempted {result.shots_attempted} shots"
        if not 0 <= result.shots_successful <= result.shots_attempted:
            return (f"{strategy.name}: {result.shots_successful} successful "
                    f"of {result.shots_attempted} shots")
        if len(result.shots_between_reloads) != result.reload_count + 1:
            return f"{strategy.name}: reload segments do not match reloads"
        if round_index == 0:
            self.first_round["swaps"] += generated_swaps(strategy)
        return None

    # -- per-layer -----------------------------------------------------------

    def add_probes(self, probe: Probe) -> None:
        add_core_probes(probe)

        def on_loss_label(strategy, site):
            return f"loss.on_loss.{STRATEGY_SLUGS[strategy.name]}"

        def on_run(probe, result, args):
            probe.count("loss.shots", result.shots_attempted)
            probe.count("loss.reloads", result.reload_count)

        probe.add(VirtualRemap, "on_loss", on_loss_label)
        probe.add(AlwaysRecompile, "on_loss", on_loss_label)
        probe.add(recompile_module, "cached_compile", "loss.recompile")
        probe.add(ShotRunner, "run", "loss.shot_run", on_run)
        probe.add(ShotLossSampler, "sample", "loss.sampler")

    def round_done(self, round_index: int) -> None:
        pass

    def layer_metrics(self, view: LayerView, samples) -> Dict[str, float]:
        values = core_metrics(view)
        attempted = view.calls("loss.recompile")
        succeeded = attempted - view.calls("loss.recompile.raised")
        values.update({
            "loss.recompiles_attempted": attempted,
            "loss.recompiles_succeeded": succeeded,
            "loss.recompile_success_ratio": view.ratio(succeeded, attempted),
            "loss.shot_run.ms": view.ms("loss.shot_run"),
            "loss.shots": view.count("loss.shots"),
            "loss.sampler.ms": view.ms("loss.sampler"),
            "loss.reloads": view.count("loss.reloads"),
            "gen.swaps": float(self.first_round["swaps"]),
            "gen.losses_tolerated": float(self.first_round["losses"]),
        })
        for slug in STRATEGY_SLUGS.values():
            label = f"loss.on_loss.{slug}"
            values[f"{label}.calls"] = view.calls(label)
            values[f"{label}.ms"] = view.ms(label)
        return values

    def split_latencies(self, samples) -> Dict[str, float]:
        return {}
