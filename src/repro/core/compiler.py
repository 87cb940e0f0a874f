"""Top-level compile entry point.

``compile_circuit(circuit, topology, config)`` runs the full §III-A
pipeline in two stages:

1. **Lowering** (:func:`lower_circuit`) — gates wider than
   ``config.native_max_arity`` (or wider than the MID can ever bring into
   mutual range) are decomposed.  At MID 1 even a Toffoli is impossible
   (three atoms cannot be pairwise adjacent at distance 1 on a square
   grid), so it is decomposed — exactly the paper's observation in §IV-B.
   The dependency DAG, the placement weights and the placement order are
   built here too.  Nothing in this stage looks at which atoms are
   present, so its result serves every hole pattern at one MID.
2. **Topology stage** — greedy weighted placement on the active sites
   near the device center, then routing + scheduling with the zone-aware
   lookahead scheduler.

The result is a :class:`~repro.core.result.CompiledProgram`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple, Union

from repro.circuits.circuit import Circuit
from repro.circuits.decompose import decompose_circuit
from repro.core.config import CompilerConfig
from repro.core.errors import CompilationError
from repro.core.mapping import initial_mapping, placement_order
from repro.core.result import CompiledProgram
from repro.core.scheduler import schedule_circuit
from repro.core.weights import InteractionWeights, initial_weights
from repro.circuits.dag import CircuitDag
from repro.hardware.topology import Topology


def max_native_arity_for_distance(max_interaction_distance: float) -> int:
    """Largest gate arity executable at a given MID on a square grid.

    A k-qubit gate needs k atoms pairwise within the MID.  At distance 1
    only pairs fit (a third atom cannot be at distance <= 1 from both).
    At distance >= sqrt(2) a 2x2 block hosts 4 mutually-in-range atoms,
    and the count grows with the distance; we cap the answer at 8 since
    nothing in the library emits wider native gates.
    """
    if max_interaction_distance < math.sqrt(2.0) - 1e-9:
        return 2
    if max_interaction_distance < 2.0:
        return 4
    return 8


@dataclass(frozen=True)
class LoweredCircuit:
    """The topology-independent half of a compile (see :func:`lower_circuit`).

    Every field depends only on the source circuit and the MID-normalized
    config, so one record serves any number of topology stages at that MID
    — the Always Recompile strategy lowers once and re-places on every
    loss.  Shared between the programs compiled from it: never mutate.
    """

    #: The MID-normalized config the circuit was lowered under.
    config: CompilerConfig
    source: Circuit
    #: ``source`` with every gate too wide for the MID decomposed.
    circuit: Circuit
    dag: CircuitDag
    #: Lookahead weights seen from the start of the program.
    weights: InteractionWeights
    placement_order: Tuple[int, ...]
    #: Wall-clock seconds the lowering took.
    seconds: float

    @cached_property
    def source_fingerprint(self) -> Tuple:
        """:func:`repro.exec.keys.circuit_fingerprint` of ``source``,
        computed on first use (a plain compile never asks for it)."""
        from repro.exec.keys import circuit_fingerprint

        return circuit_fingerprint(self.source)


def lower_circuit(circuit: Circuit, config: CompilerConfig) -> LoweredCircuit:
    """Lower ``circuit`` for ``config``'s MID and build its placement inputs."""
    start = time.perf_counter()
    lowering_arity = min(
        config.native_max_arity,
        max_native_arity_for_distance(config.max_interaction_distance),
    )
    lowered = decompose_circuit(circuit, keep_swaps=True, max_arity=lowering_arity)
    dag = CircuitDag(lowered)
    weights = initial_weights(
        dag, config.initial_mapping_layers, config.lookahead_decay
    )
    order = placement_order(lowered.num_qubits, weights)
    return LoweredCircuit(
        config=config,
        source=circuit,
        circuit=lowered,
        dag=dag,
        weights=weights,
        placement_order=tuple(order),
        seconds=time.perf_counter() - start,
    )


def stage_config(
    circuit: Union[Circuit, LoweredCircuit],
    topology: Topology,
    config: Optional[CompilerConfig] = None,
) -> CompilerConfig:
    """The config a compile of ``circuit`` on ``topology`` runs under.

    The topology's ``max_interaction_distance`` takes precedence over the
    config's.  A :class:`LoweredCircuit` brings its own config
    (``config`` may be omitted) and raises :class:`ValueError` unless the
    compile runs under exactly that config — the lowering arity depends
    on the MID.
    """
    lowered = circuit if isinstance(circuit, LoweredCircuit) else None
    if config is None:
        config = lowered.config if lowered is not None else CompilerConfig()
    mid = topology.max_interaction_distance
    if abs(config.max_interaction_distance - mid) > 1e-9:
        config = config.with_mid(mid)
    if lowered is not None and config != lowered.config:
        raise ValueError(
            f"circuit was lowered under another config (MID "
            f"{lowered.config.max_interaction_distance}) than this "
            f"compile's (MID {mid})"
        )
    return config


def compile_circuit(
    circuit: Union[Circuit, LoweredCircuit],
    topology: Topology,
    config: Optional[CompilerConfig] = None,
) -> CompiledProgram:
    """Compile ``circuit`` for ``topology`` under ``config``.

    The topology's own ``max_interaction_distance`` takes precedence when
    it differs from the config (the config is copied with the topology's
    MID), so callers can't accidentally compile for a different range than
    they execute on.

    ``circuit`` may be a :class:`LoweredCircuit` from an earlier
    :func:`lower_circuit` at the topology's MID (see :func:`stage_config`);
    then only the topology stage runs.  Either way the program's
    ``compile_seconds`` is the topology stage's measured seconds plus the
    lowering's, so a program compiled from a reused lowering still reports
    the cost of a whole compile.
    """
    config = stage_config(circuit, topology, config)
    lowered = (circuit if isinstance(circuit, LoweredCircuit)
               else lower_circuit(circuit, config))

    start = time.perf_counter()
    if lowered.circuit.num_qubits > topology.num_active:
        raise CompilationError(
            f"program needs {lowered.circuit.num_qubits} qubits "
            f"(incl. decomposition ancillas) but the device has "
            f"{topology.num_active} active atoms"
        )
    layout = initial_mapping(lowered.placement_order, topology, lowered.weights)
    schedule, final_layout = schedule_circuit(
        lowered.circuit, topology, config, layout, dag=lowered.dag
    )

    elapsed = time.perf_counter() - start
    return CompiledProgram(
        source=lowered.circuit,
        config=config,
        grid_shape=(topology.grid.rows, topology.grid.cols),
        initial_layout=layout,
        final_layout=final_layout,
        schedule=schedule,
        compile_seconds=elapsed + lowered.seconds,
    )
