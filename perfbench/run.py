"""Benchmark entry point.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program under test is imported
from ``src/`` of the same checkout.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it states the sample counts behind the
numbers.

Exits 2 without a result when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from functools import partial

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SOURCE = os.path.join(CHECKOUT, "src")

WORKLOADS = {
    "compile": "compile_load",
    "loss": "loss_load",
    "serve": "serve_load",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"perfbench: no program to measure ({SOURCE}/repro is "
              "missing); run from the root of a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)

    from calibrate import EchoServer, HostClock, scaled_import_seconds
    from common import (end_to_end, run_loop, scratch_root, summary_line,
                        throughput, timed_setups)
    from layers import PER_LAYER
    from probe import LayerView, Probe

    module_name = WORKLOADS[args.workload]
    module = importlib.import_module(module_name)
    scratch = scratch_root(CHECKOUT)
    workload = module.Workload(args.seed, scratch)
    probe = Probe() if args.trace else None
    first_round = {}

    def round_done(round_index: int) -> None:
        workload.round_done(round_index)
        if probe is not None and round_index == 0:
            first_round.update(probe.snapshot())

    # ``serve`` spends much of each op in sockets and threads, which the
    # pure-Python unit does not track; an HTTP echo unit joins it there.
    clock = HostClock(EchoServer() if args.workload == "serve" else None)
    try:
        clock.measure()
        setup_s = timed_setups(
            workload, clock,
            partial(scaled_import_seconds, module_name, [HERE, SOURCE]))
        if probe is not None:
            workload.add_probes(probe)
        measurement = run_loop(workload, args.seconds, clock, probe,
                               round_done)
        if probe is None:
            metrics = end_to_end(measurement, setup_s, clock.scale())
        else:
            traced = [s for s in measurement.samples if s.traced]
            untraced = [s for s in measurement.samples if not s.traced]
            view = LayerView(probe, first_round,
                             (measurement.rounds + 1) // 2)
            values = workload.layer_metrics(view, measurement.samples)
            traced_rate = throughput(traced)
            untraced_rate = throughput(untraced)
            values["obs.traced_throughput_ops_s"] = traced_rate
            values["obs.untraced_throughput_ops_s"] = untraced_rate
            values["obs.overhead_ratio"] = (
                untraced_rate / traced_rate - 1.0 if traced_rate else 0.0)
            unknown = sorted(set(values) - {name for name, _, _ in PER_LAYER})
            if unknown:
                raise KeyError(f"undeclared per-layer metrics: {unknown}")
            metrics = {name: {"value": float(values.get(name, 0.0)),
                              "unit": unit}
                       for name, unit, _ in PER_LAYER}
    finally:
        workload.teardown()
        if clock.echo is not None:
            clock.echo.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass  # another run still uses it

    for problem in measurement.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    split = workload.split_latencies(measurement.samples)
    split["host_scale"] = clock.scale()
    print(summary_line(args.workload, measurement, split))
    print(json.dumps({
        "correct": measurement.failed == 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
