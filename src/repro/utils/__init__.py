"""Shared utilities: deterministic RNG helpers, geometry, and text plots."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.utils.geometry": ["euclidean"],
    "repro.utils.rng": ["ensure_rng"],
})

__all__ = ["euclidean", "ensure_rng"]
