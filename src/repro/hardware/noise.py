"""Gate-error and coherence noise model.

Implements the paper's §V success-rate estimator:

    P(success) = prod_i p_{gate,i}^{n_i} * exp(-Dg/T1g - Dg/T2g)

where ``n_i`` counts i-qubit gates, ``p_{gate,i}`` is the i-qubit gate
fidelity, and ``Dg`` is the time spent in the ground state (taken as the
whole program duration; excited-state coherence is folded into the gate
fidelities, as the paper does).

Two named parameter sets ship with the library:

* :func:`NoiseModel.neutral_atom` — demonstrated NA fidelities (96.5%
  two-qubit per the paper's §VI fixup-budget calculation) with
  seconds-scale ground-state coherence;
* :func:`NoiseModel.superconducting_rome` — IBM-Rome-era constants
  (the paper pulled the live device on 2020-11-19; we embed representative
  values since the calibration service is unavailable offline).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional


@dataclass(frozen=True)
class NoiseModel:
    """Per-arity gate fidelities plus ground-state coherence times."""

    name: str
    #: arity -> gate success probability (fidelity).
    gate_fidelity: Mapping[int, float]
    #: Ground-state T1 (seconds).
    t1_ground: float
    #: Ground-state T2 (seconds).
    t2_ground: float
    #: arity -> gate duration in seconds (used to turn depth into time).
    gate_time: Mapping[int, float]

    def __post_init__(self) -> None:
        for arity, fidelity in self.gate_fidelity.items():
            if not 0.0 <= fidelity <= 1.0:
                raise ValueError(
                    f"{self.name}: fidelity for arity {arity} out of range: {fidelity}"
                )
        if self.t1_ground <= 0 or self.t2_ground <= 0:
            raise ValueError(f"{self.name}: coherence times must be positive")

    # -- lookups ------------------------------------------------------------------

    def fidelity(self, arity: int) -> float:
        """Fidelity for an ``arity``-qubit gate.

        Arities above the largest configured one fall back to the largest
        (conservative for rare >3-qubit natives).
        """
        if arity in self.gate_fidelity:
            return self.gate_fidelity[arity]
        return self.gate_fidelity[max(self.gate_fidelity)]

    def duration_of(self, arity: int) -> float:
        if arity in self.gate_time:
            return self.gate_time[arity]
        return self.gate_time[max(self.gate_time)]

    @property
    def two_qubit_error(self) -> float:
        return 1.0 - self.fidelity(2)

    # -- the success estimator (§V) ---------------------------------------------

    def gate_success(self, counts_by_arity: Mapping[int, int]) -> float:
        """``prod_i p_i^{n_i}`` over the gate census."""
        log_p = 0.0
        for arity, count in counts_by_arity.items():
            fidelity = self.fidelity(arity)
            if fidelity == 0.0:
                return 0.0
            log_p += count * math.log(fidelity)
        return math.exp(log_p)

    def coherence_success(self, duration: float) -> float:
        """``exp(-D/T1g - D/T2g)`` for a program of ``duration`` seconds."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        return math.exp(-duration / self.t1_ground - duration / self.t2_ground)

    def program_success(
        self, counts_by_arity: Mapping[int, int], duration: float
    ) -> float:
        """Full §V estimate for one program execution."""
        return self.gate_success(counts_by_arity) * self.coherence_success(duration)

    # -- derived models ------------------------------------------------------------

    def with_two_qubit_error(self, error: float) -> "NoiseModel":
        """Rescale the whole technology to a new two-qubit error.

        This is how the paper sweeps Figs 7-8: the x-axis is two-qubit
        error and everything else improves in lock-step — other gate
        arities keep a fixed error ratio to the two-qubit gate, and
        coherence times scale inversely with the error (a 10x better gate
        comes with 10x longer coherence).  Without the coherence scaling a
        55 us-T1 device could never run a deep program no matter how good
        its gates, which is not the regime the paper's sweep explores.
        """
        if not 0.0 <= error < 1.0:
            raise ValueError(f"two-qubit error out of range: {error}")
        base_error = self.two_qubit_error
        if base_error == 0:
            raise ValueError("cannot rescale a noiseless model")
        ratio = error / base_error
        new_fidelity: Dict[int, float] = {}
        for arity, fidelity in self.gate_fidelity.items():
            scaled_error = min(1.0, (1.0 - fidelity) * ratio)
            new_fidelity[arity] = 1.0 - scaled_error
        return replace(
            self,
            name=f"{self.name}@err2={error:.2e}",
            gate_fidelity=new_fidelity,
            t1_ground=self.t1_ground / ratio,
            t2_ground=self.t2_ground / ratio,
        )

    # -- named parameter sets --------------------------------------------------------

    @classmethod
    def neutral_atom(cls, two_qubit_error: Optional[float] = None) -> "NoiseModel":
        """Demonstrated-NA parameters.

        Defaults: 1q 99.9%, 2q 96.5% (the paper's §VI working number),
        3q Toffoli 92% — better than the 6-CX decomposition product
        (0.965^6 ~= 0.807) as the paper argues in §IV-B.  Ground-state
        coherence is seconds-scale; gate times are sub-microsecond Rydberg
        pulses and microsecond Raman single-qubit gates.
        """
        model = cls(
            name="neutral-atom",
            gate_fidelity={1: 0.999, 2: 0.965, 3: 0.92},
            t1_ground=4.0,
            t2_ground=1.0,
            gate_time={1: 1.0e-6, 2: 0.4e-6, 3: 0.8e-6},
        )
        if two_qubit_error is not None:
            model = model.with_two_qubit_error(two_qubit_error)
        return model

    @classmethod
    def trapped_ion(cls, two_qubit_error: Optional[float] = None) -> "NoiseModel":
        """Trapped-ion-era parameters (the paper's Discussion comparator).

        High fidelities (1q ~99.9%, 2q ~97-99% on ~11-qubit devices) and
        very long coherence, but slow gates: two-qubit Molmer-Sorensen
        interactions take hundreds of microseconds, which is what makes
        the serialization of a single shared phonon bus costly.
        """
        model = cls(
            name="trapped-ion",
            gate_fidelity={1: 0.999, 2: 0.975},
            t1_ground=10.0,
            t2_ground=1.0,
            gate_time={1: 10e-6, 2: 200e-6},
        )
        if two_qubit_error is not None:
            model = model.with_two_qubit_error(two_qubit_error)
        return model

    @classmethod
    def superconducting_rome(
        cls, two_qubit_error: Optional[float] = None
    ) -> "NoiseModel":
        """IBM-Rome-era parameters (CX ~1.2e-2, 1q ~4e-4, T1/T2 ~tens of us).

        Substitution note (DESIGN.md §1): the paper read the live device on
        2020-11-19; these are representative constants for that calibration
        era.  No 3-qubit entry — SC hardware decomposes Toffolis.
        """
        model = cls(
            name="superconducting-rome",
            gate_fidelity={1: 1.0 - 4.0e-4, 2: 1.0 - 1.2e-2},
            t1_ground=55e-6,
            t2_ground=65e-6,
            gate_time={1: 35e-9, 2: 300e-9},
        )
        if two_qubit_error is not None:
            model = model.with_two_qubit_error(two_qubit_error)
        return model


def success_ratio_to_random(success_rate: float, num_qubits: int) -> float:
    """How far a program's outcome distribution is from fully random.

    The paper's Fig 7 frames viability as "divergence from the all-noise
    outcome"; this helper gives the margin of the §V estimate over the
    uniform-outcome probability ``2^-n``.
    """
    random_rate = 2.0 ** (-num_qubits)
    return success_rate / random_rate
