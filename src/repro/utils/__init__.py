"""Shared utilities: deterministic RNG helpers, geometry, and text plots."""

from repro.utils.geometry import euclidean
from repro.utils.rng import ensure_rng

__all__ = ["euclidean", "ensure_rng"]
