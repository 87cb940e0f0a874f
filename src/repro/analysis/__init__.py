"""Error analysis: success-rate curves and largest-runnable-size sweeps."""

from repro.analysis.architectures import (
    Architecture,
    DEFAULT_GRID_SIDE,
    PAPER_MIDS,
    compiled_metrics,
    neutral_atom_arch,
    superconducting_arch,
    trapped_ion_arch,
)
from repro.analysis.metrics import ProgramMetrics
from repro.analysis.success import (
    SIZE_THRESHOLD,
    SuccessComparison,
    calibrate_two_qubit_error,
    compare_architectures,
    error_sweep,
    success_curve,
    valid_sizes,
)

__all__ = [
    "Architecture",
    "DEFAULT_GRID_SIDE",
    "PAPER_MIDS",
    "ProgramMetrics",
    "SIZE_THRESHOLD",
    "SuccessComparison",
    "calibrate_two_qubit_error",
    "compare_architectures",
    "compiled_metrics",
    "error_sweep",
    "neutral_atom_arch",
    "success_curve",
    "superconducting_arch",
    "trapped_ion_arch",
    "valid_sizes",
]
