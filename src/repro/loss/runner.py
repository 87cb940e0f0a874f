"""Shot-level execution simulator (§VI, Figs 12-14).

Replays a compiled program shot after shot against stochastic atom loss,
letting a :class:`~repro.loss.strategies.base.CopingStrategy` adapt, and
accounts wall-clock time by category (compile / run / fluorescence /
fixup / reload).  This is the engine behind the paper's overhead and
sensitivity results.

Per shot:

1. the circuit runs (its scheduled duration, plus fixup SWAP time);
2. fluorescence imaging (~6 ms) detects losses sampled from the
   :class:`~repro.hardware.loss.LossModel` — vacuum loss over the whole
   array plus readout loss on measured atoms;
3. a shot is *successful* when no loss touched a program atom
   (a loss means the run cannot be trusted and is discarded);
4. each lost atom is handed to the strategy, which remaps / reroutes /
   recompiles or gives up; giving up triggers an array reload (~0.3 s).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.api.serialize import serializable
from repro.circuits.circuit import Circuit
from repro.core.config import CompilerConfig
from repro.hardware.loss import LossModel, ShotLossSampler
from repro.hardware.noise import NoiseModel
from repro.hardware.timing import TimingModel
from repro.hardware.topology import Topology
from repro.loss.strategies.base import CopingStrategy
from repro.loss.timeline import TimelineEvent, totals_by_kind
from repro.utils.rng import RngLike, ensure_rng


@serializable
@dataclass
class RunResult:
    """Everything measured over one batch of shots."""

    strategy_name: str
    shots_attempted: int = 0
    shots_successful: int = 0
    reload_count: int = 0
    interfering_losses: int = 0
    spare_losses: int = 0
    #: Sum over successful shots of the analytic §V success probability of
    #: the program as adapted at that moment (gate errors on top of loss).
    expected_successes: float = 0.0
    #: Successful shots in each inter-reload segment (last segment open).
    shots_between_reloads: List[int] = field(default_factory=list)
    timeline: List[TimelineEvent] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return sum(e.duration for e in self.timeline)

    def time_by_kind(self) -> dict:
        return totals_by_kind(self.timeline)

    @property
    def overhead_time(self) -> float:
        """Everything except useful circuit execution.

        A timeline can legitimately contain no run events at all
        (``max_shots=0`` or ``target_successful=0``), so the run total
        defaults to zero rather than assuming the key exists.
        """
        by_kind = self.time_by_kind()
        return self.total_time - by_kind.get("run", 0.0)

    @property
    def mean_shots_between_reloads(self) -> float:
        """Mean successful shots per *closed* inter-reload segment.

        ``shots_between_reloads`` holds one entry per segment; a segment
        closes when a reload fires, and the run's final (still open)
        segment is appended when the shot loop ends.  With at least one
        reload, the open tail is excluded — it was cut short by the shot
        budget, not by a reload.  With no reloads the single open segment
        *is* the whole run, so the mean equals ``shots_successful``
        (including the degenerate case of a result with no recorded
        segments at all).
        """
        closed = self.shots_between_reloads[:-1] or self.shots_between_reloads
        if not closed:
            return float(self.shots_successful)
        return sum(closed) / len(closed)


class ShotRunner:
    """Drives one strategy through a batch of shots on one device."""

    def __init__(
        self,
        strategy: CopingStrategy,
        circuit: Circuit,
        topology: Topology,
        config: Optional[CompilerConfig] = None,
        noise: Optional[NoiseModel] = None,
        loss_model: Optional[LossModel] = None,
        timing: Optional[TimingModel] = None,
        rng: RngLike = None,
    ):
        self.strategy = strategy
        self.circuit = circuit
        self.topology = topology
        self.config = config or CompilerConfig(
            max_interaction_distance=topology.max_interaction_distance
        )
        self.noise = noise or NoiseModel.neutral_atom()
        self.loss_model = loss_model or LossModel.lossless_readout()
        self.timing = timing or TimingModel.paper_defaults()
        self.rng = ensure_rng(rng)
        #: Whether the generator was created here (seed or None) rather
        #: than passed in.  Owned generators are never observed by the
        #: caller after a run, so the loss sampler may buffer its uniform
        #: draws in blocks (identical consumed stream, fewer RNG calls).
        self._owns_rng = rng is not self.rng

    # -- main loop ---------------------------------------------------------------------

    def run(
        self,
        max_shots: int = 500,
        target_successful: Optional[int] = None,
        include_compile_event: bool = True,
    ) -> RunResult:
        """Run up to ``max_shots`` shots (stopping early once
        ``target_successful`` successes accumulate, if given)."""
        program = self.strategy.begin(self.circuit, self.topology, self.config)
        result = RunResult(strategy_name=self.strategy.name)
        clock = 0.0
        segment_successes = 0
        sampler = ShotLossSampler(
            self.loss_model, self.rng, buffered=self._owns_rng
        )

        if include_compile_event:
            clock = self._emit(result, "compile", clock, program.compile_seconds)

        # Only the loss loop below (on_loss, recompiles, reloads) changes
        # the active and measured sites, so they are rebuilt after a shot
        # that lost atoms and handed to the sampler as the same immutable
        # objects otherwise.
        active = measured = None
        for _ in range(max_shots):
            if (
                target_successful is not None
                and result.shots_successful >= target_successful
            ):
                break
            result.shots_attempted += 1

            # 1. Run the (possibly fixed-up) circuit.
            run_time = self.strategy.program.duration(self.noise)
            run_time += self.strategy.added_swaps * self.timing.swap_duration()
            clock = self._emit(result, "run", clock, run_time)

            # 2. Fluorescence imaging reveals this shot's losses.
            clock = self._emit(
                result, "fluorescence", clock, self.timing.fluorescence_time
            )
            if active is None:
                active = tuple(self.topology.active_sites())
                measured = frozenset(self.strategy.current_measured_sites())
            lost = sampler.sample(active, measured)

            # 3. Score the shot before adapting.
            used = self.strategy.current_used_sites()
            shot_ok = not (lost & used)
            if shot_ok:
                result.shots_successful += 1
                segment_successes += 1
                result.expected_successes += self.strategy.shot_success_rate(
                    self.noise
                )

            # 4. Let the strategy cope, loss by loss.
            if lost:
                active = None
            reloaded = False
            for site in sorted(lost):
                if reloaded:
                    break
                self.topology.remove_atom(site)
                outcome = self.strategy.on_loss(site)
                if outcome.interfering:
                    result.interfering_losses += 1
                else:
                    result.spare_losses += 1
                fixup_time = (
                    outcome.remap_updates * self.timing.remap_time
                    + (self.timing.reroute_fixup_time
                       if outcome.ran_fixup_search else 0.0)
                )
                if fixup_time > 0:
                    clock = self._emit(result, "fixup", clock, fixup_time)
                if outcome.recompile_seconds > 0:
                    recompile_cost = (
                        self.timing.recompile_time
                        if self.timing.recompile_time is not None
                        else outcome.recompile_seconds
                    )
                    clock = self._emit(result, "compile", clock, recompile_cost)
                if not outcome.coped:
                    clock = self._reload(result, clock)
                    result.shots_between_reloads.append(segment_successes)
                    segment_successes = 0
                    reloaded = True

        result.shots_between_reloads.append(segment_successes)
        return result

    # -- helpers ---------------------------------------------------------------------------

    def _reload(self, result: RunResult, clock: float) -> float:
        self.topology.reload()
        self.strategy.after_reload()
        result.reload_count += 1
        return self._emit(result, "reload", clock, self.timing.reload_time)

    @staticmethod
    def _emit(
        result: RunResult, kind: str, clock: float, duration: float
    ) -> float:
        if duration > 0:
            result.timeline.append(TimelineEvent(kind, clock, duration))
        return clock + duration


# -- batch execution over the sweep engine ---------------------------------------------


@dataclass(frozen=True)
class ShotSpec:
    """One self-contained shot-simulation task.

    Everything needed to reproduce a run from a clean process: the
    benchmark is named (workers rebuild the circuit), the models are
    frozen dataclasses, and the seed is an integer — typically derived
    from the task's canonical key via
    :func:`repro.exec.keys.derive_seed`, which is what makes a batch
    deterministic at any worker count.
    """

    strategy: str
    benchmark: str
    program_size: int
    grid_side: int
    mid: float
    max_shots: int
    seed: int
    target_successful: Optional[int] = None
    loss_model: Optional[LossModel] = None
    timing: Optional[TimingModel] = None
    noise: Optional[NoiseModel] = None
    include_compile_event: bool = True


def run_shot_spec(spec: ShotSpec) -> RunResult:
    """Execute one :class:`ShotSpec` (module-level: usable as an engine
    task function from spawn-based workers)."""
    from repro.loss.strategies import make_strategy
    from repro.obs import trace as _trace
    from repro.workloads.ref import resolve_circuit

    with _trace.span("shots", strategy=spec.strategy,
                     benchmark=spec.benchmark, size=spec.program_size):
        noise = spec.noise or NoiseModel.neutral_atom()
        runner = ShotRunner(
            make_strategy(spec.strategy, noise=noise),
            resolve_circuit(spec.benchmark, spec.program_size),
            Topology.square(spec.grid_side, spec.mid),
            config=CompilerConfig(max_interaction_distance=spec.mid),
            noise=noise,
            loss_model=spec.loss_model,
            timing=spec.timing,
            rng=spec.seed,
        )
        return runner.run(
            max_shots=spec.max_shots,
            target_successful=spec.target_successful,
            include_compile_event=spec.include_compile_event,
        )


def run_shot_specs(specs) -> List[RunResult]:
    """Run a batch of specs through the sweep engine, in spec order."""
    from repro.exec.engine import run_tasks

    return run_tasks(run_shot_spec, list(specs))


def run_shot_grid_map(
    specs,
    *,
    experiment: str,
    base_seed: int = 0,
    key_fields=None,
) -> List[RunResult]:
    """Run a batch of specs with key-derived seeds, in spec order.

    The grid_map layer over :func:`run_shot_specs`: each spec's ``seed``
    field is **overwritten** with a seed derived from the spec's
    canonical cell key (its primitive fields — strategy, benchmark,
    sizes, shot counts — under the ``experiment`` namespace; the
    attached model objects stay out of the key), so shot outcomes are
    identical at any worker count and independent of which other specs
    share the batch.  Construct specs with ``seed=0`` as a placeholder.
    """
    from repro.exec.grid import grid_map

    return grid_map(run_shot_spec, list(specs), experiment=experiment,
                    base_seed=base_seed, key_fields=key_fields)
