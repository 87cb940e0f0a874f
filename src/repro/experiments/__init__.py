"""Experiment drivers: one module per figure in the paper's evaluation.

Each module exposes ``run(...) -> <Fig>Result`` (with paper-scale
defaults and knobs for quick runs) and registers an
:class:`repro.api.ExperimentSpec` at import time.  The import order
below is the curated presentation order (paper figures, then
validation, ablations, extensions) — it defines the registry's
iteration order and therefore what ``python -m repro run all`` emits.
The complete index lives in DESIGN.md §2.
"""

# Registration order is presentation order: keep these imports in
# figure order, not alphabetical.
from repro.experiments import fig3_gate_count  # noqa: F401  isort:skip
from repro.experiments import fig4_depth  # noqa: F401  isort:skip
from repro.experiments import fig5_serialization  # noqa: F401  isort:skip
from repro.experiments import fig6_multiqubit  # noqa: F401  isort:skip
from repro.experiments import fig7_success  # noqa: F401  isort:skip
from repro.experiments import fig8_program_size  # noqa: F401  isort:skip
from repro.experiments import fig10_loss_tolerance  # noqa: F401  isort:skip
from repro.experiments import fig11_shot_success  # noqa: F401  isort:skip
from repro.experiments import fig12_overhead  # noqa: F401  isort:skip
from repro.experiments import fig13_sensitivity  # noqa: F401  isort:skip
from repro.experiments import fig14_timeline  # noqa: F401  isort:skip
from repro.experiments import validation  # noqa: F401  isort:skip
from repro.experiments import ablation_zones  # noqa: F401  isort:skip
from repro.experiments import ablation_lookahead  # noqa: F401  isort:skip
from repro.experiments import ablation_margin  # noqa: F401  isort:skip
from repro.experiments import ext_ejection_readout  # noqa: F401  isort:skip
from repro.experiments import ext_device_scaling  # noqa: F401  isort:skip
from repro.experiments import ext_trapped_ion  # noqa: F401  isort:skip
from repro.experiments import ext_geometry  # noqa: F401  isort:skip
from repro.experiments import ext_validation_noisy  # noqa: F401  isort:skip
from repro.experiments import workloads  # noqa: F401  isort:skip

__all__ = [
    "ablation_lookahead",
    "ablation_margin",
    "ablation_zones",
    "ext_device_scaling",
    "ext_ejection_readout",
    "ext_geometry",
    "ext_trapped_ion",
    "ext_validation_noisy",
    "fig3_gate_count",
    "fig4_depth",
    "fig5_serialization",
    "fig6_multiqubit",
    "fig7_success",
    "fig8_program_size",
    "fig10_loss_tolerance",
    "fig11_shot_success",
    "fig12_overhead",
    "fig13_sensitivity",
    "fig14_timeline",
    "validation",
    "workloads",
]
