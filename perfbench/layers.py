"""The per-layer metric vocabulary and the probes of the compiler core.

Every traced run prints every metric below; a layer a workload bypasses
reads 0 there.  ``BENCHMARK.json`` lists the same names (a test keeps
them in step).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from probe import LayerView, Probe

#: Strategy display name -> metric-name slug.
STRATEGY_SLUGS = {
    "virtual remapping": "virtual_remap",
    "reroute": "reroute",
    "compile small": "compile_small",
    "c. small+reroute": "compile_small_reroute",
    "recompile": "recompile",
}

#: The serve routes the ``serve`` workload sends, as metric-name slugs.
SERVE_ROUTES = ("post_run", "get_results", "post_sweeps", "get_sweep_stream",
                "fleet_claim", "fleet_complete")

# (name, unit, better)
PER_LAYER: List[Tuple[str, str, str]] = [
    ("routing.propose_swap.calls", "count", "lower"),
    ("routing.propose_swap.ms", "ms", "lower"),
    ("routing.fallbacks", "count", "lower"),
    ("routing.fallback_ratio", "ratio", "lower"),
    ("weights.frontier_weights.calls", "count", "lower"),
    ("weights.frontier_weights.ms", "ms", "lower"),
    ("weights.initial_weights.calls", "count", "lower"),
    ("weights.initial_weights.ms", "ms", "lower"),
    ("scheduler.schedule_circuit.calls", "count", "lower"),
    ("scheduler.schedule_circuit.self_ms", "ms", "lower"),
    ("scheduler.timesteps", "count", "lower"),
    ("scheduler.stalled_calls", "count", "lower"),
    ("scheduler.stalled_ms", "ms", "lower"),
    ("mapping.initial_mapping.ms", "ms", "lower"),
    ("circuits.decompose_circuit.ms", "ms", "lower"),
    ("topology.shortest_path.calls", "count", "lower"),
    ("topology.shortest_path.ms", "ms", "lower"),
    ("loss.recompiles_attempted", "count", "lower"),
    ("loss.recompiles_succeeded", "count", "higher"),
    ("loss.recompile_success_ratio", "ratio", "higher"),
]
PER_LAYER += [(f"loss.on_loss.{slug}.{field}", unit, "lower")
              for slug in STRATEGY_SLUGS.values()
              for field, unit in (("calls", "count"), ("ms", "ms"))]
PER_LAYER += [
    ("loss.shot_run.ms", "ms", "lower"),
    ("loss.shots", "count", "higher"),
    ("loss.sampler.ms", "ms", "lower"),
    ("loss.reloads", "count", "lower"),
    ("gen.swaps", "count", "lower"),
    ("gen.depth", "count", "lower"),
    ("gen.losses_tolerated", "count", "higher"),
    ("store.get.calls", "count", "lower"),
    ("store.get.ms", "ms", "lower"),
    ("store.put.calls", "count", "lower"),
    ("store.put.ms", "ms", "lower"),
    ("store.record.calls", "count", "lower"),
    ("store.record.ms", "ms", "lower"),
    ("store.bytes_written", "bytes", "lower"),
]
PER_LAYER += [(f"serve.handle.{slug}.ms", "ms", "lower")
              for slug in SERVE_ROUTES]
PER_LAYER += [
    ("serve.queue_wait_ms", "ms", "lower"),
    ("serve.http_ms", "ms", "lower"),
    ("serve.read_p50_ms", "ms", "lower"),
    ("serve.write_p50_ms", "ms", "lower"),
    ("fleet.claim.ms", "ms", "lower"),
    ("fleet.complete.ms", "ms", "lower"),
    ("fleet.claims", "count", "lower"),
    ("fleet.idle_claims", "count", "lower"),
    ("session.run.calls", "count", "lower"),
    ("session.run.ms", "ms", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.memory_entries", "count", "lower"),
    ("obs.traced_throughput_ops_s", "1/s", "higher"),
    ("obs.untraced_throughput_ops_s", "1/s", "higher"),
    ("obs.overhead_ratio", "ratio", "lower"),
]


def add_core_probes(probe: Probe) -> None:
    """Wrap the compiler's stage functions where their callers look them up."""
    import repro.core.compiler as compiler
    import repro.core.scheduler as scheduler
    from repro.hardware.topology import Topology

    def on_proposal(probe, proposal, args):
        if proposal is not None and proposal.via_path_fallback:
            probe.count("routing.fallbacks")

    def on_schedule(probe, result, args):
        probe.count("scheduler.timesteps", len(result[0]))

    probe.add(scheduler, "propose_swap", "routing.propose_swap",
              on_proposal)
    probe.add(scheduler, "frontier_weights", "weights.frontier_weights")
    probe.add(compiler, "initial_weights", "weights.initial_weights")
    probe.add(compiler, "schedule_circuit", "scheduler.schedule_circuit",
              on_schedule)
    probe.add(compiler, "initial_mapping", "mapping.initial_mapping")
    probe.add(compiler, "decompose_circuit", "circuits.decompose_circuit")
    probe.add(Topology, "shortest_path", "topology.shortest_path")


def core_metrics(view: LayerView) -> Dict[str, float]:
    """Values of the compiler-core metrics from a probe."""
    proposals = view.calls("routing.propose_swap")
    fallbacks = view.count("routing.fallbacks")
    return {
        "routing.propose_swap.calls": proposals,
        "routing.propose_swap.ms": view.ms("routing.propose_swap"),
        "routing.fallbacks": fallbacks,
        "routing.fallback_ratio": view.ratio(fallbacks, proposals),
        "weights.frontier_weights.calls":
            view.calls("weights.frontier_weights"),
        "weights.frontier_weights.ms": view.ms("weights.frontier_weights"),
        "weights.initial_weights.calls":
            view.calls("weights.initial_weights"),
        "weights.initial_weights.ms": view.ms("weights.initial_weights"),
        "scheduler.schedule_circuit.calls":
            view.calls("scheduler.schedule_circuit"),
        "scheduler.schedule_circuit.self_ms":
            view.self_ms("scheduler.schedule_circuit"),
        "scheduler.timesteps": view.count("scheduler.timesteps"),
        "scheduler.stalled_calls":
            view.calls("scheduler.schedule_circuit.raised"),
        "scheduler.stalled_ms": view.ms("scheduler.schedule_circuit.raised"),
        "mapping.initial_mapping.ms": view.ms("mapping.initial_mapping"),
        "circuits.decompose_circuit.ms":
            view.ms("circuits.decompose_circuit"),
        "topology.shortest_path.calls": view.calls("topology.shortest_path"),
        "topology.shortest_path.ms": view.ms("topology.shortest_path"),
    }
