"""Additional property-based tests: QASM round-trips and loss-runner
failure injection."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import from_qasm, to_qasm
from repro.core import CompilerConfig
from repro.hardware import LossModel, NoiseModel, Topology
from repro.loss import ShotRunner, make_strategy
from repro.workloads import build_circuit, random_circuit

SETTINGS = dict(deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@given(seed=st.integers(0, 10_000), num_gates=st.integers(0, 25),
       num_qubits=st.integers(2, 7))
@settings(max_examples=50, **SETTINGS)
def test_qasm_roundtrip_random_circuits(seed, num_gates, num_qubits):
    circuit = random_circuit(num_qubits, num_gates, rng=seed)
    assert from_qasm(to_qasm(circuit)) == circuit


@given(seed=st.integers(0, 500),
       strategy_name=st.sampled_from(
           ["always reload", "virtual remapping", "reroute",
            "c. small+reroute", "recompile"]))
@settings(max_examples=15, **SETTINGS)
def test_runner_invariants_under_heavy_loss(seed, strategy_name):
    """Failure injection: under a brutal loss model, every strategy keeps
    the runner's books consistent — timeline sums to the clock, shots are
    conserved across segments, and the topology ends up either full or
    tracking exactly the post-reload losses."""
    noise = NoiseModel.neutral_atom()
    topology = Topology.square(6, 4.0)
    runner = ShotRunner(
        make_strategy(strategy_name, noise=noise),
        build_circuit("cnu", 12),
        topology,
        config=CompilerConfig(max_interaction_distance=4.0),
        noise=noise,
        loss_model=LossModel(vacuum_loss=0.1, measurement_loss=0.3),
        rng=seed,
    )
    result = runner.run(max_shots=25)
    assert result.shots_attempted == 25
    assert 0 <= result.shots_successful <= result.shots_attempted
    assert sum(result.shots_between_reloads) == result.shots_successful
    assert len(result.shots_between_reloads) == result.reload_count + 1
    by_kind = result.time_by_kind()
    assert sum(by_kind.values()) == pytest.approx(result.total_time)
    assert by_kind["reload"] == pytest.approx(0.3 * result.reload_count)
    assert 0.0 <= result.expected_successes <= result.shots_successful + 1e-9
    # Timeline events are contiguous and non-overlapping.
    clock = None
    for event in result.timeline:
        if clock is not None:
            assert event.start == pytest.approx(clock)
        clock = event.end
