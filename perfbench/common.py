"""Closed-loop measurement, statistics and result assembly.

Every workload exposes the same three hooks:

``setup()``
    Build one fresh fixture (inputs, stores, servers) and warm its
    caches.  Called several times per run; the median is ``setup_s``.
``teardown()``
    Release the fixture ``setup()`` built.
``ops(round_index, traced)``
    The ops of one round, as ``Op`` records.  A round is a fixed mix:
    the op at each position (its *slot*) does the same kind of work in
    every round, so a run made of whole rounds has the same composition
    however many rounds the host's speed allows.

One thread generates the load: each op starts only after the previous
one returned (a closed loop with one client).  Only ``Op.call`` is
timed; its output check runs after the clock stops.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: Set-ups per run; ``setup_s`` is the median of their times.
SETUP_REPEATS = 5
#: Peak RSS is read at the end of this many rounds, so it measures a
#: fixed amount of work however many rounds the host's speed allows.
#: Every run lasts at least this many rounds.
RSS_ROUNDS = 3


@dataclass
class Op:
    """One timed operation and the check of its output."""

    kind: str
    call: Callable[[], Any]
    #: Returns a problem description, or ``None`` when the output is right.
    check: Callable[[Any], Optional[str]]


@dataclass
class Sample:
    round_index: int
    #: Position of the op in its round.
    slot: int
    kind: str
    seconds: float
    traced: bool


@dataclass
class Measurement:
    """What one measured loop produced."""

    samples: List[Sample] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    rounds: int = 0
    #: Peak RSS (MiB) at the end of round ``RSS_ROUNDS``.
    rss_mb: float = 0.0

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """Max resident set size in MiB (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(workload, clock, imports: Callable[[], float]) -> float:
    """Set up ``SETUP_REPEATS`` times; the median reference-host seconds
    of one set-up.

    One set-up is what a fresh process pays before its first op: the
    imports, as ``imports()`` times and scales them in a fresh
    interpreter, plus ``workload.setup()``.  A single in-process import
    would be one cold sample taken in the slow first seconds of the
    process.  The host ``clock`` takes a point after each set-up; the
    fixture times are scaled by its factor over those points.  The last
    fixture stays up for the measured loop.
    """
    import_s, fixture_s = [], []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.teardown()
        import_s.append(imports())
        start = time.perf_counter()
        workload.setup()
        fixture_s.append(time.perf_counter() - start)
        clock.measure()
    scale = clock.scale()
    return statistics.median(imported + fixture * scale
                             for imported, fixture in zip(import_s, fixture_s))


def run_loop(workload, seconds: float, clock, probe=None,
             on_round_end: Optional[Callable[[int], None]] = None
             ) -> Measurement:
    """Run whole rounds until ``seconds`` of wall time have passed, and
    at least ``RSS_ROUNDS`` rounds.

    Between ops (untimed) the host ``clock`` takes a calibration point
    whenever its interval has passed.  With a ``probe``, even rounds run
    with the per-layer wrappers installed and odd rounds without, so the
    two halves give the tracing overhead.  ``on_round_end`` runs untimed
    after each round.
    """
    result = Measurement()
    deadline = time.perf_counter() + seconds
    round_index = 0
    while round_index < RSS_ROUNDS or time.perf_counter() < deadline:
        traced = probe is not None and round_index % 2 == 0
        if traced:
            probe.install()
        try:
            for slot, op in enumerate(workload.ops(round_index, traced)):
                _run_op(op, round_index, slot, traced, result)
                clock.maybe_measure()
        finally:
            if traced:
                probe.uninstall()
        if on_round_end is not None:
            on_round_end(round_index)
        round_index += 1
        if round_index == RSS_ROUNDS:
            result.rss_mb = peak_rss_mb()
    result.rounds = round_index
    clock.measure()
    return result


def _run_op(op: Op, round_index: int, slot: int, traced: bool,
            result: Measurement) -> None:
    result.attempted += 1
    start = time.perf_counter()
    try:
        output = op.call()
    except Exception as error:  # every failure counts against error_rate
        result.fail(f"{op.kind} op raised {type(error).__name__}: {error}\n"
                    + traceback.format_exc(limit=3))
        return
    elapsed = time.perf_counter() - start
    try:
        problem = op.check(output)
    except Exception as error:
        problem = f"check raised {type(error).__name__}: {error}"
    if problem is not None:
        result.fail(f"{op.kind} op: {problem}")
        return
    result.samples.append(Sample(round_index, slot, op.kind, elapsed,
                                 traced))


def throughput(samples: List[Sample]) -> float:
    """Ops per second of timed wall time (the sum of op latencies)."""
    busy = sum(sample.seconds for sample in samples)
    return len(samples) / busy if busy > 0 else 0.0


def slot_medians(samples: List[Sample]) -> List[float]:
    """Each slot's median latency (seconds) across the run's rounds."""
    by_slot: Dict[int, List[float]] = {}
    for sample in samples:
        by_slot.setdefault(sample.slot, []).append(sample.seconds)
    return [statistics.median(by_slot[slot]) for slot in sorted(by_slot)]


def end_to_end(measurement: Measurement, setup_s: float,
               scale: float) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of an untraced run.

    Each slot contributes its median latency across rounds: throughput is
    slots per second of one round made of those medians, and the latency
    percentiles are taken over them.  A host stall during a few rounds
    therefore moves no metric much.  Latencies and throughput are
    multiplied by the host clock's factor ``scale`` to reference-host
    seconds (``calibrate.py``); ``setup_s`` comes scaled already.
    """
    typical = slot_medians(measurement.samples)
    latencies = [seconds * 1000.0 * scale for seconds in typical]
    return {
        "setup_s": metric(setup_s, "s"),
        "throughput_ops_s": metric(len(typical) / (sum(typical) * scale),
                                   "1/s"),
        "latency_p50_ms": metric(percentile(latencies, 50), "ms"),
        "latency_p95_ms": metric(percentile(latencies, 95), "ms"),
        "peak_rss_mb": metric(measurement.rss_mb, "MB"),
    }


def kind_p50_ms(samples: List[Sample], kinds) -> float:
    """Median latency of the samples whose kind is in ``kinds`` (0 if none)."""
    values = [sample.seconds * 1000.0 for sample in samples
              if sample.kind in kinds]
    return statistics.median(values) if values else 0.0


def summary_line(workload: str, measurement: Measurement,
                 split: Dict[str, float]) -> str:
    """A human-readable line with the sample counts behind the metrics."""
    counts: Dict[str, int] = {}
    for sample in measurement.samples:
        counts[sample.kind] = counts.get(sample.kind, 0) + 1
    slots = len({sample.slot for sample in measurement.samples})
    parts = [f"workload={workload}", f"rounds={measurement.rounds}",
             f"slots={slots}", f"samples={len(measurement.samples)}",
             f"slots_beyond_p95={int(slots * 0.05)}",
             "by_kind=" + ",".join(f"{k}:{v}"
                                   for k, v in sorted(counts.items())),
             f"error_rate={measurement.failed}/{measurement.attempted}"]
    parts += [f"{name}={value:.4f}" for name, value in split.items()]
    return "# " + " ".join(parts)


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def scratch_root(checkout: str) -> str:
    """The checkout-local directory every temporary store lives under."""
    path = os.path.join(checkout, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(path, exist_ok=True)
    return path
