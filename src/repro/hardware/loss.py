"""Stochastic atom-loss model (§VI).

Two loss processes:

* **Vacuum-limited lifetime** — a background-gas collision ejects the atom.
  Probability ~0.0068 per qubit over the course of one program, uniform
  across all atoms in the array (the paper cites 2000-shot imaging of Sr
  tweezers).
* **Readout loss** — measurement is lossy.  The default "lossless" imaging
  technique still loses ~2% of *measured* atoms per shot; the destructive
  ejection-based readout loses ~50%.

An ``improvement_factor`` scales both probabilities down (Fig 13 sweeps it
from 0.1x to 100x better than today).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Set, Tuple

import numpy as np

from repro.utils.rng import RngLike, ensure_rng

#: Paper constants.
VACUUM_LOSS_PROBABILITY = 0.0068
LOSSLESS_READOUT_LOSS = 0.02
EJECTION_READOUT_LOSS = 0.50


@dataclass(frozen=True)
class LossModel:
    """Per-shot atom loss probabilities."""

    #: Probability a given atom is lost to a vacuum collision during one shot.
    vacuum_loss: float = VACUUM_LOSS_PROBABILITY
    #: Probability a *measured* atom is lost during readout of one shot.
    measurement_loss: float = LOSSLESS_READOUT_LOSS
    #: Technology-improvement multiplier: 10.0 means 10x lower loss rates.
    improvement_factor: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.vacuum_loss <= 1.0:
            raise ValueError(f"vacuum_loss out of range: {self.vacuum_loss}")
        if not 0.0 <= self.measurement_loss <= 1.0:
            raise ValueError(f"measurement_loss out of range: {self.measurement_loss}")
        if self.improvement_factor <= 0:
            raise ValueError("improvement_factor must be positive")

    @classmethod
    def lossless_readout(cls, improvement_factor: float = 1.0) -> "LossModel":
        """The paper's default: 2% measured-atom loss + vacuum loss."""
        return cls(improvement_factor=improvement_factor)

    @classmethod
    def ejection_readout(cls, improvement_factor: float = 1.0) -> "LossModel":
        """Destructive state-selective readout: ~50% measured-atom loss."""
        return cls(
            measurement_loss=EJECTION_READOUT_LOSS,
            improvement_factor=improvement_factor,
        )

    # -- effective rates -----------------------------------------------------------

    @property
    def effective_vacuum_loss(self) -> float:
        return min(1.0, self.vacuum_loss / self.improvement_factor)

    @property
    def effective_measurement_loss(self) -> float:
        return min(1.0, self.measurement_loss / self.improvement_factor)

    # -- sampling ---------------------------------------------------------------------

    def sample_shot_losses(
        self,
        all_sites: Iterable[int],
        measured_sites: Iterable[int],
        rng: RngLike = None,
    ) -> Set[int]:
        """Sites whose atoms are lost during one shot.

        Vacuum loss applies to every occupied site in the array; readout
        loss additionally applies to measured sites.

        The uniform draws are batched into one ``Generator.random(k)``
        call over the ``k`` sites with nonzero loss probability, in site
        iteration order.  ``random(k)`` consumes the generator exactly
        like ``k`` scalar ``random()`` calls, so results and the
        generator's end state are bit-identical to the historical scalar
        loop (which likewise skipped zero-probability sites).
        """
        generator = ensure_rng(rng)
        draw_sites, probs = _draw_plan(self, all_sites, measured_sites)
        if not draw_sites:
            return set()
        draws = generator.random(len(draw_sites))
        return {draw_sites[i] for i in np.flatnonzero(draws < probs)}

    def expected_losses_per_shot(
        self, num_sites: int, num_measured: int
    ) -> float:
        """Mean number of atoms lost per shot."""
        if num_sites < 0:
            raise ValueError(f"num_sites must be non-negative, got {num_sites}")
        if not 0 <= num_measured <= num_sites:
            raise ValueError(
                f"num_measured must be between 0 and num_sites="
                f"{num_sites}, got {num_measured}"
            )
        p_vac = self.effective_vacuum_loss
        p_meas = self.effective_measurement_loss
        unmeasured = num_sites - num_measured
        combined = 1.0 - (1.0 - p_vac) * (1.0 - p_meas)
        return unmeasured * p_vac + num_measured * combined


def _draw_plan(
    model: LossModel,
    all_sites: Iterable[int],
    measured_sites: Iterable[int],
) -> Tuple[Tuple[int, ...], Optional[np.ndarray]]:
    """(sites that draw, their loss probabilities) for one shot.

    Only sites with nonzero loss probability draw, in ``all_sites``
    iteration order — the exact per-site draw sequence of the scalar
    sampling loop.
    """
    sites = tuple(all_sites)
    measured = (
        measured_sites
        if isinstance(measured_sites, (set, frozenset))
        else set(measured_sites)
    )
    p_vac = model.effective_vacuum_loss
    p_meas = model.effective_measurement_loss
    combined = 1.0 - (1.0 - p_vac) * (1.0 - p_meas)
    if p_vac > 0.0:
        # Every site draws: unmeasured at p_vac, measured at the combined rate.
        probs = [combined if site in measured else p_vac for site in sites]
        return sites, np.array(probs, dtype=np.float64)
    if p_meas > 0.0:
        # Only measured sites have nonzero probability (combined == p_meas).
        draw_sites = tuple(site for site in sites if site in measured)
        return draw_sites, np.full(len(draw_sites), combined)
    return (), None


class ShotLossSampler:
    """Repeated per-shot loss sampling bound to one generator.

    Results are bit-identical to calling
    :meth:`LossModel.sample_shot_losses` once per shot on the same
    generator: the per-(site sets) probability vector is cached, and the
    uniform doubles are consumed from the same stream in the same order.

    With ``buffered=True`` the uniforms are drawn in blocks spanning
    shots.  ``Generator.random(n)`` calls concatenate exactly like scalar
    draws, so the *consumed* doubles — and every sampled loss set — stay
    identical; the generator is merely advanced past doubles not yet
    consumed when the sampler is dropped.  Only enable buffering when the
    caller owns the generator and never reads it after the batch (e.g. a
    runner seeded from an int).
    """

    def __init__(
        self,
        loss_model: LossModel,
        generator: np.random.Generator,
        buffered: bool = False,
        block: int = 2048,
    ):
        if block <= 0:
            raise ValueError(f"block must be positive, got {block}")
        self.loss_model = loss_model
        #: Duck-typed loss models (test stubs with a ``sample_shot_losses``
        #: method) bypass the vectorized plan and are called per shot.
        self._native = isinstance(loss_model, LossModel)
        self.generator = generator
        self._buffered = bool(buffered)
        self._block = int(block)
        self._buffer = np.empty(0)
        self._pos = 0
        self._key: Optional[Tuple[Tuple[int, ...], frozenset]] = None
        self._draw_sites: Tuple[int, ...] = ()
        self._probs: Optional[np.ndarray] = None

    def sample(
        self, all_sites: Iterable[int], measured_sites: Iterable[int]
    ) -> Set[int]:
        """Losses for one shot (same contract as ``sample_shot_losses``)."""
        if not self._native:
            return set(
                self.loss_model.sample_shot_losses(
                    all_sites, measured_sites, rng=self.generator
                )
            )
        key = self._key
        # The key keeps a caller's tuple and frozenset as they are, so the
        # same immutable objects again (the runner's inputs between lossy
        # shots) skip the comparison.  A list or set is converted, is never
        # identical to the key, and so is compared by value.
        if (key is None or all_sites is not key[0]
                or measured_sites is not key[1]):
            fresh = (
                tuple(all_sites),
                measured_sites
                if isinstance(measured_sites, frozenset)
                else frozenset(measured_sites),
            )
            if fresh != key:
                self._draw_sites, self._probs = _draw_plan(
                    self.loss_model, fresh[0], fresh[1]
                )
            self._key = fresh
        draw_sites = self._draw_sites
        if not draw_sites:
            return set()
        draws = self._take(len(draw_sites))
        return {draw_sites[i] for i in (draws < self._probs).nonzero()[0]}

    def _take(self, count: int) -> np.ndarray:
        """The next ``count`` uniforms from the generator's double stream."""
        if not self._buffered:
            return self.generator.random(count)
        buffer = self._buffer
        pos = self._pos
        available = len(buffer) - pos
        if available >= count:
            self._pos = pos + count
            return buffer[pos:self._pos]
        needed = count - available
        fresh = self.generator.random(max(needed, self._block))
        head = buffer[pos:]
        self._buffer = fresh
        self._pos = needed
        if available:
            return np.concatenate((head, fresh[:needed]))
        return fresh[:needed]
