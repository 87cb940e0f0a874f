"""The neutral-atom compiler: the paper's primary contribution."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.compiler": [
        "LoweredCircuit",
        "compile_circuit",
        "lower_circuit",
        "max_native_arity_for_distance",
    ],
    "repro.core.config": ["CompilerConfig"],
    "repro.core.errors": [
        "CompilationError",
        "DisconnectedTopologyError",
        "SchedulingStalledError",
    ],
    "repro.core.mapping": ["MappingError", "initial_mapping"],
    "repro.core.result": ["CompiledProgram", "ScheduledOp"],
    "repro.core.routing": [
        "SwapProposal",
        "propose_swap",
        "reroute_path_swaps",
    ],
    "repro.core.validation": ["check_compiled"],
    "repro.core.weights": [
        "InteractionWeights",
        "frontier_weights",
        "initial_weights",
    ],
})

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
