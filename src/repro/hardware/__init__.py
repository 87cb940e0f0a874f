"""Neutral-atom hardware models: geometry, zones, noise, timing, loss."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.hardware.grid": ["Grid"],
    "repro.hardware.loss": ["LossModel"],
    "repro.hardware.noise": ["NoiseModel"],
    "repro.hardware.restriction": [
        "RestrictionModel",
        "Zone",
        "half_distance",
        "no_restriction",
    ],
    "repro.hardware.timing": ["TimingModel"],
    "repro.hardware.topology": ["Topology"],
})

__all__ = [
    "Grid",
    "LossModel",
    "NoiseModel",
    "RestrictionModel",
    "TimingModel",
    "Topology",
    "Zone",
    "half_distance",
    "no_restriction",
]
