"""Compiled-program artifact.

A :class:`CompiledProgram` is the compiler's output: the timestep-by-
timestep schedule of operations pinned to physical sites, the initial and
final layouts, and every metric the paper reports (gate count, depth,
SWAP count, duration, per-arity census).

The atom-loss strategies (§VI) replay this artifact: they need each
operation's *sites at execution time* to re-check interaction distances
after virtual remapping shifts atoms around.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.core.config import CompilerConfig
from repro.hardware.noise import NoiseModel


@dataclass(frozen=True)
class ScheduledOp:
    """One operation pinned to sites and a timestep."""

    #: The gate in *program-qubit* terms, or ``None`` for a routing SWAP
    #: (whose operands may include spare atoms that carry no program qubit).
    gate: Optional[Gate]
    #: Physical sites the operation touches, in operand order.
    sites: Tuple[int, ...]
    #: Scheduler timestep (0-based).
    timestep: int
    #: Index of the originating gate in the source circuit; None for SWAPs.
    source_index: Optional[int] = None

    @property
    def is_swap(self) -> bool:
        return self.gate is None

    @property
    def name(self) -> str:
        return "swap" if self.gate is None else self.gate.name

    @property
    def arity(self) -> int:
        return len(self.sites)

    @property
    def is_multiqubit(self) -> bool:
        return len(self.sites) >= 2

    def __str__(self) -> str:
        label = self.name
        sites = ", ".join(str(s) for s in self.sites)
        return f"t{self.timestep}: {label} @ sites({sites})"


@dataclass
class CompiledProgram:
    """Full result of compiling one circuit onto one topology."""

    source: Circuit
    config: CompilerConfig
    grid_shape: Tuple[int, int]
    #: program qubit -> site, before the first timestep.
    initial_layout: Dict[int, int]
    #: program qubit -> site, after the last timestep.
    final_layout: Dict[int, int]
    #: Ops grouped by timestep.
    schedule: List[List[ScheduledOp]]
    #: Wall-clock seconds the compiler spent (drives Fig 12's recompile cost).
    compile_seconds: float = 0.0

    # -- basic censuses ------------------------------------------------------------

    @property
    def ops(self) -> List[ScheduledOp]:
        return [op for timestep in self.schedule for op in timestep]

    @property
    def swap_count(self) -> int:
        return sum(1 for op in self.ops if op.is_swap)

    @property
    def op_count(self) -> int:
        """Scheduled operations, counting each SWAP as one."""
        return len(self.ops)

    def gate_count(self) -> int:
        """The paper's post-compilation gate count (SWAP = 3 CX)."""
        swaps = self.swap_count
        return (self.op_count - swaps) + self.config.swap_gate_cost * swaps

    def counts_by_arity(self) -> Counter:
        """Per-arity census for the §V success model (SWAP = 3 two-qubit).

        The census is a pure function of the (immutable once built)
        schedule, so it is computed once and the shared Counter returned;
        callers only read it.
        """
        counts = self.__dict__.get("_arity_counts")
        if counts is None:
            counts = Counter()
            for op in self.ops:
                if op.is_swap:
                    counts[2] += self.config.swap_gate_cost
                elif not op.gate.is_measurement:
                    counts[op.arity] += 1
            self.__dict__["_arity_counts"] = counts
        return counts

    def depth(self) -> int:
        """Scheduled depth: each timestep costs the max op cost within it
        (1 for a gate, ``swap_depth_cost`` for a SWAP)."""
        total = 0
        for timestep in self.schedule:
            if not timestep:
                continue
            cost = 1
            if any(op.is_swap for op in timestep):
                cost = self.config.swap_depth_cost
            total += cost
        return total

    def _timestep_profiles(self) -> List[Tuple[bool, Tuple[int, ...]]]:
        """Per-timestep ``(has_swap, distinct op arities)`` digest, cached.

        :meth:`duration` only needs the slowest op per timestep, which is a
        function of this digest and the noise model's per-arity gate times
        — not of the full op list.
        """
        profiles = self.__dict__.get("_profiles")
        if profiles is None:
            profiles = []
            for timestep in self.schedule:
                has_swap = False
                arities = set()
                for op in timestep:
                    if op.gate is None:
                        has_swap = True
                    else:
                        arities.add(len(op.sites))
                profiles.append((has_swap, tuple(arities)))
            self.__dict__["_profiles"] = profiles
        return profiles

    def duration(self, noise: NoiseModel) -> float:
        """Wall-clock execution time of one shot under a noise model's
        gate times: per timestep, the slowest op; SWAPs take 3 two-qubit
        gate times.

        Memoized per (frozen) noise model — shot loops re-query the same
        program/noise pair hundreds of times.
        """
        memo = self.__dict__.get("_duration_memo")
        if memo is not None and memo[0] is noise:
            return memo[1]
        total = 0.0
        for has_swap, arities in self._timestep_profiles():
            slowest = 0.0
            if has_swap:
                slowest = 3.0 * noise.duration_of(2)
            for arity in arities:
                length = noise.duration_of(arity)
                if length > slowest:
                    slowest = length
            total += slowest
        self.__dict__["_duration_memo"] = (noise, total)
        return total

    def success_rate(self, noise: NoiseModel) -> float:
        """The §V success estimate for this compiled program.

        Memoized per (frozen) noise model like :meth:`duration`: shot
        loops score every successful shot against it.
        """
        memo = self.__dict__.get("_success_memo")
        if memo is not None and memo[0] is noise:
            return memo[1]
        rate = noise.program_success(self.counts_by_arity(), self.duration(noise))
        self.__dict__["_success_memo"] = (noise, rate)
        return rate

    # -- site usage (consumed by the loss machinery) --------------------------------

    def used_sites(self) -> FrozenSet[int]:
        """Every site any op (or layout) touches over the program.

        Computed once and shared (loss strategies ask on every lost
        atom), hence frozen.  Sites go in layout first, then op by op,
        one at a time, so it iterates in the order a ``set`` grown by
        ``update`` calls would: virtual maps are seeded in that order.
        """
        sites = self.__dict__.get("_used_sites")
        if sites is None:
            sites = frozenset(chain(
                self.initial_layout.values(),
                *(op.sites for op in self.ops)))
            self.__dict__["_used_sites"] = sites
        return sites

    def measured_sites(self) -> set:
        """Sites read out at the end (final homes of all program qubits)."""
        return set(self.final_layout.values())

    def multiqubit_ops(self) -> List[ScheduledOp]:
        return [op for op in self.ops if op.is_multiqubit]

    # -- export -----------------------------------------------------------------------

    def to_physical_circuit(self) -> Circuit:
        """The schedule as a flat circuit over site indices.

        Feeding this to the statevector simulator (with program qubits
        embedded at their initial layout) must reproduce the source
        circuit — the equivalence check in
        :mod:`repro.core.validation`.
        """
        num_sites = self.grid_shape[0] * self.grid_shape[1]
        circuit = Circuit(num_sites)
        for op in self.ops:
            if op.is_swap:
                circuit.append(Gate("swap", op.sites))
            else:
                circuit.append(Gate(op.gate.name, op.sites, op.gate.params))
        return circuit

    def summary(self) -> Dict[str, float]:
        """Headline metrics as a plain dict (handy for tables)."""
        return {
            "qubits": self.source.num_qubits,
            "mid": self.config.max_interaction_distance,
            "ops": self.op_count,
            "gates": self.gate_count(),
            "swaps": self.swap_count,
            "depth": self.depth(),
            "timesteps": len(self.schedule),
        }

    def __getstate__(self) -> Dict:
        # The lazily-built metric caches are derived data; keep pickled
        # artifacts (compile cache, task payloads) byte-stable regardless
        # of which metrics were queried before pickling.
        state = dict(self.__dict__)
        state.pop("_arity_counts", None)
        state.pop("_profiles", None)
        state.pop("_duration_memo", None)
        state.pop("_success_memo", None)
        state.pop("_used_sites", None)
        return state

    def __repr__(self) -> str:
        return (
            f"CompiledProgram(qubits={self.source.num_qubits}, "
            f"mid={self.config.max_interaction_distance}, "
            f"gates={self.gate_count()}, depth={self.depth()}, "
            f"swaps={self.swap_count})"
        )
