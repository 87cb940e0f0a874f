"""Deterministic random number handling.

Every stochastic component in the library (QAOA graph generation, atom-loss
injection, tolerance trials) accepts either an integer seed, a
``numpy.random.Generator``, or ``None``.  This module centralizes the
coercion so all call sites behave identically and experiments are
reproducible by construction.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a ``numpy.random.Generator``.

    ``None`` produces a freshly seeded generator, an ``int`` seeds a new
    generator, and an existing generator is passed through untouched so
    callers can share a stream across components.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (bool, np.bool_)):
        # bool is a subclass of int, so without this check True would
        # silently seed as 1 — almost certainly a bug at the call site
        # (e.g. a flag passed where a seed was expected).
        raise TypeError(
            f"seed must not be a bool (got {rng!r}); pass an int, a "
            "numpy Generator, or None"
        )
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"expected None, int, or numpy Generator, got {type(rng)!r}")


def base_seed_from(rng: RngLike) -> int:
    """Collapse an ``RngLike`` into one integer base seed.

    Sweep drivers combine this base with each task's canonical key
    (:func:`repro.exec.keys.derive_seed`) so per-task streams never
    depend on task enumeration order.  An integer passes through
    unchanged; a generator contributes a single draw; ``None`` draws a
    fresh unseeded value.
    """
    if isinstance(rng, (bool, np.bool_)):
        raise TypeError(
            f"seed must not be a bool (got {rng!r}); pass an int, a "
            "numpy Generator, or None"
        )
    if isinstance(rng, (int, np.integer)):
        return int(rng)
    return int(ensure_rng(rng).integers(0, 2**63 - 1))
