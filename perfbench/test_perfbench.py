"""Tests of the benchmark's own pieces.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

from checks import schedule_problems  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from probe import Probe  # noqa: E402

from repro.core.compiler import compile_circuit  # noqa: E402
from repro.core.config import CompilerConfig  # noqa: E402
from repro.hardware.topology import Topology  # noqa: E402
from repro.workloads.registry import get_benchmark  # noqa: E402


@pytest.fixture(scope="module")
def compiled():
    topology = Topology.square(6, 1.0)
    program = compile_circuit(get_benchmark("qft-adder").circuit(10),
                              topology, CompilerConfig())
    assert program.swap_count > 0
    return program, topology


def _with_schedule(program, schedule):
    return dataclasses.replace(program, schedule=schedule)


def _first(program, predicate):
    for t, ops in enumerate(program.schedule):
        for i, op in enumerate(ops):
            if predicate(op):
                return t, i
    raise AssertionError("no matching op")


def test_valid_schedule_passes(compiled):
    program, topology = compiled
    assert schedule_problems(program, topology) == []


def test_dropped_swap_is_caught(compiled):
    program, topology = compiled
    t, i = _first(program, lambda op: op.gate is None)
    schedule = [list(ops) for ops in program.schedule]
    del schedule[t][i]
    assert schedule_problems(_with_schedule(program, schedule), topology)


def test_gate_at_wrong_sites_is_caught(compiled):
    program, topology = compiled
    t, i = _first(program, lambda op: op.gate is not None
                  and len(op.sites) == 1)
    schedule = [list(ops) for ops in program.schedule]
    op = schedule[t][i]
    free = next(site for site in range(topology.grid.num_sites)
                if site not in program.initial_layout.values()
                and site not in program.final_layout.values())
    schedule[t][i] = dataclasses.replace(op, sites=(free,))
    problems = schedule_problems(_with_schedule(program, schedule), topology)
    assert any("qubits sit" in problem for problem in problems)


def test_gate_scheduled_twice_is_caught(compiled):
    program, topology = compiled
    t, i = _first(program, lambda op: op.gate is not None)
    schedule = [list(ops) for ops in program.schedule]
    schedule.append([dataclasses.replace(schedule[t][i],
                                         timestep=len(schedule))])
    problems = schedule_problems(_with_schedule(program, schedule), topology)
    assert any("twice" in problem for problem in problems)


def test_reordered_timesteps_are_caught(compiled):
    program, topology = compiled
    schedule = [list(ops) for ops in program.schedule]
    schedule[0], schedule[1] = schedule[1], schedule[0]
    assert schedule_problems(_with_schedule(program, schedule), topology)


def test_lost_site_is_caught(compiled):
    program, topology = compiled
    holed = topology.copy()
    holed.remove_atom(program.schedule[0][0].sites[0])
    problems = schedule_problems(program, holed)
    assert any("inactive" in problem for problem in problems)


def test_out_of_range_gate_is_caught(compiled):
    program, topology = compiled
    t, i = _first(program, lambda op: op.gate is not None
                  and len(op.sites) == 2)
    schedule = [list(ops) for ops in program.schedule]
    far = (0, topology.grid.num_sites - 1)
    schedule[t][i] = dataclasses.replace(schedule[t][i], sites=far)
    problems = schedule_problems(_with_schedule(program, schedule), topology)
    assert any("MID" in problem for problem in problems)


def test_probe_restores_what_it_wrapped():
    import repro.core.scheduler as scheduler

    original = scheduler.propose_swap
    probe = Probe()
    probe.add(scheduler, "propose_swap", "routing.propose_swap")
    probe.add(Topology, "shortest_path", "topology.shortest_path")
    probe.install()
    try:
        assert scheduler.propose_swap is not original
        Topology.square(4, 1.0).shortest_path(0, 15)
    finally:
        probe.uninstall()
    assert scheduler.propose_swap is original
    assert "shortest_path" in vars(Topology)
    assert probe.calls["topology.shortest_path"] == 1


def test_timed_stream_times_draining_and_closes_the_body():
    closed = []

    def body():
        try:
            yield b"first"
            yield b"second"
        finally:
            closed.append(True)

    probe = Probe()
    stream = probe.timed_stream(body(), "serve.handle.get_sweep_stream")
    assert next(stream) == b"first"
    stream.close()
    assert closed == [True]
    assert probe.seconds["serve.handle.get_sweep_stream"] > 0


def test_run_loop_reads_rss_after_a_fixed_number_of_rounds():
    from common import RSS_ROUNDS, Op, run_loop

    class OneOp:
        def ops(self, round_index, traced):
            return [Op("noop", lambda: None, lambda output: None)]

    class NoClock:
        def maybe_measure(self):
            pass

        def measure(self):
            pass

    measurement = run_loop(OneOp(), 0.0, NoClock())
    assert measurement.rounds == RSS_ROUNDS
    assert measurement.rss_mb > 0


def test_http_clock_blends_both_units_and_stops_its_server():
    from calibrate import EchoServer, HostClock

    echo = EchoServer()
    try:
        clock = HostClock(echo)
        clock.measure()
        assert len(clock.points) == len(clock.http_points) == 1
        assert 0 < clock.scale() < float("inf")
    finally:
        echo.close()
    assert not echo.thread.is_alive()


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == PER_LAYER
    from common import Measurement, Sample, end_to_end

    measurement = Measurement(samples=[Sample(0, 0, "op", 0.001, False)])
    printed = end_to_end(measurement, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        name: value["unit"] for name, value in printed.items()}
