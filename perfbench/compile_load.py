"""``compile``: cold ``compile_circuit`` calls on the pristine grid.

The inputs are the five paper families at sizes 10, 20, 30, 40 and 50
on a 10x10 grid at MIDs 1, 2, 3 and 5: 100 compiles per round, in a
seeded order.  The seed also draws the QAOA graphs, the one randomized
family; sizes are fixed because the cost of a compile grows steeply
with size, and size draws moved run-to-run cost more than the host.  Every round
compiles the same 100 inputs again, so the mix and its cost are the
same in every round.  Compiles go straight to ``compile_circuit``: no
compile cache, no store, no process pool.

Round 0's outputs pass the independent schedule replay; later rounds
must reproduce round 0's programs exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

from checks import schedule_problems
from common import Op
from layers import add_core_probes, core_metrics
from probe import LayerView, Probe

from repro.core.compiler import compile_circuit
from repro.core.config import CompilerConfig
from repro.hardware.topology import Topology
from repro.workloads.registry import BENCHMARK_ORDER, get_benchmark

GRID_SIDE = 10
MIDS = (1.0, 2.0, 3.0, 5.0)
SIZES = (10, 20, 30, 40, 50)


@dataclass(frozen=True)
class CompileInput:
    family: str
    size: int
    circuit: object
    topology: Topology
    config: CompilerConfig


def fingerprint(program) -> Tuple:
    return (program.swap_count, program.depth(), len(program.schedule),
            tuple(sorted(program.final_layout.items())))


class Workload:
    name = "compile"

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.inputs: List[CompileInput] = []
        self.reference: Dict[int, Tuple] = {}

    def setup(self) -> None:
        draw = random.Random(self.seed)
        topologies = {mid: Topology.square(GRID_SIDE, mid) for mid in MIDS}
        inputs = []
        for family in BENCHMARK_ORDER:
            benchmark = get_benchmark(family)
            for size in SIZES:
                circuit = benchmark.circuit(size, rng=draw.randrange(2**31))
                for mid in MIDS:
                    inputs.append(CompileInput(
                        family, size, circuit, topologies[mid],
                        CompilerConfig(max_interaction_distance=mid)))
        draw.shuffle(inputs)
        # One untimed pass fills the per-shape grid caches.
        for item in inputs:
            compile_circuit(item.circuit, item.topology, item.config)
        self.inputs = inputs
        self.reference = {}

    def teardown(self) -> None:
        self.inputs = []

    def ops(self, round_index: int, traced: bool) -> List[Op]:
        return [Op("compile",
                   partial(compile_circuit, item.circuit, item.topology,
                           item.config),
                   partial(self._check, index, item))
                for index, item in enumerate(self.inputs)]

    def _check(self, index: int, item: CompileInput,
               program) -> Optional[str]:
        expected = self.reference.get(index)
        if expected is None:
            problems = schedule_problems(program, item.topology)
            if problems:
                return (f"{item.family}@{item.size} MID "
                        f"{item.topology.max_interaction_distance}: "
                        + "; ".join(problems))
            self.reference[index] = fingerprint(program)
            return None
        if fingerprint(program) != expected:
            return (f"{item.family}@{item.size} compiled differently from "
                    "round 0")
        return None

    # -- per-layer -----------------------------------------------------------

    def add_probes(self, probe: Probe) -> None:
        add_core_probes(probe)

    def round_done(self, round_index: int) -> None:
        pass

    def layer_metrics(self, view: LayerView, samples) -> Dict[str, float]:
        values = core_metrics(view)
        values["gen.swaps"] = float(sum(ref[0]
                                        for ref in self.reference.values()))
        values["gen.depth"] = float(sum(ref[1]
                                        for ref in self.reference.values()))
        return values

    def split_latencies(self, samples) -> Dict[str, float]:
        return {}
