"""repro — Neutral-Atom Quantum Architecture reproduction.

A from-scratch Python implementation of "Exploiting Long-Distance
Interactions and Tolerating Atom Loss in Neutral Atom Quantum
Architectures" (Baker et al., ISCA 2021): a mapping/routing/scheduling
compiler aware of variable interaction distance, restriction zones, and
native multiqubit gates, plus atom-loss coping strategies evaluated by a
shot-level execution simulator.

Quick start::

    from repro import compile_circuit, CompilerConfig, Topology
    from repro.workloads import build_circuit

    circuit = build_circuit("cuccaro", 30)
    program = compile_circuit(
        circuit,
        Topology.square(10, max_interaction_distance=3.0),
        CompilerConfig(max_interaction_distance=3.0),
    )
    print(program.summary())
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.circuits": ["Circuit", "Gate"],
    "repro.core": [
        "CompilationError",
        "CompiledProgram",
        "CompilerConfig",
        "compile_circuit",
    ],
    "repro.hardware": [
        "Grid",
        "LossModel",
        "NoiseModel",
        "RestrictionModel",
        "TimingModel",
        "Topology",
    ],
    "repro.loss": ["ShotRunner", "make_strategy", "max_loss_tolerance"],
})

__version__ = "1.0.0"

__all__ = [
    "Circuit",
    "CompilationError",
    "CompiledProgram",
    "CompilerConfig",
    "Gate",
    "Grid",
    "LossModel",
    "NoiseModel",
    "RestrictionModel",
    "ShotRunner",
    "TimingModel",
    "Topology",
    "__version__",
    "compile_circuit",
    "make_strategy",
    "max_loss_tolerance",
]
