"""The neutral-atom compiler: the paper's primary contribution."""

from repro.core.compiler import (
    LoweredCircuit,
    compile_circuit,
    lower_circuit,
    max_native_arity_for_distance,
)
from repro.core.config import CompilerConfig
from repro.core.errors import (
    CompilationError,
    DisconnectedTopologyError,
    SchedulingStalledError,
)
from repro.core.mapping import MappingError, initial_mapping
from repro.core.result import CompiledProgram, ScheduledOp
from repro.core.routing import SwapProposal, propose_swap, reroute_path_swaps
from repro.core.validation import check_compiled
from repro.core.weights import (
    InteractionWeights,
    frontier_weights,
    initial_weights,
)

__all__ = [
    "CompilationError",
    "CompiledProgram",
    "CompilerConfig",
    "DisconnectedTopologyError",
    "InteractionWeights",
    "LoweredCircuit",
    "MappingError",
    "ScheduledOp",
    "SchedulingStalledError",
    "SwapProposal",
    "check_compiled",
    "compile_circuit",
    "frontier_weights",
    "initial_mapping",
    "initial_weights",
    "lower_circuit",
    "max_native_arity_for_distance",
    "propose_swap",
    "reroute_path_swaps",
]
