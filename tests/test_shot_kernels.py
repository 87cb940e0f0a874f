"""Stream-equivalence suite for the vectorized Monte-Carlo shot kernels.

The vectorized loss sampler (``LossModel.sample_shot_losses`` batching
its uniforms into ``Generator.random(k)`` calls, and the block-buffered
``ShotLossSampler`` the runner uses) must be *bit-identical* to the
historical scalar draw loop: same loss sets, same consumed RNG stream.
The reference scalar loop is kept here, verbatim from the pre-vectorized
implementation, so any divergence in the production kernels fails these
tests rather than silently changing every figure.
"""

import json

import numpy as np
import pytest

from repro.api.serialize import encode
from repro.api.session import Session, install_default
from repro.core.config import CompilerConfig
from repro.hardware.loss import LossModel, ShotLossSampler
from repro.hardware.timing import TimingModel
from repro.hardware.topology import Topology
from repro.loss.runner import ShotRunner, ShotSpec, run_shot_grid_map
from repro.loss.strategies import STRATEGY_ORDER, make_strategy
from repro.workloads.registry import build_circuit


def reference_scalar_losses(model, all_sites, measured_sites, generator):
    """The pre-vectorization per-site sampling loop, kept verbatim.

    One scalar ``random()`` draw per site with nonzero loss probability,
    in ``all_sites`` iteration order.  This is the RNG-stream contract
    the vectorized kernels promise to preserve.
    """
    lost = set()
    p_vac = model.effective_vacuum_loss
    p_meas = model.effective_measurement_loss
    measured = set(measured_sites)
    for site in all_sites:
        p = p_vac
        if site in measured:
            p = 1.0 - (1.0 - p) * (1.0 - p_meas)
        if p > 0 and generator.random() < p:
            lost.add(site)
    return lost


class ReferenceScalarLoss:
    """Duck-typed loss model routing ShotRunner through the scalar loop."""

    def __init__(self, model):
        self.model = model

    def sample_shot_losses(self, all_sites, measured_sites, rng=None):
        return reference_scalar_losses(
            self.model, all_sites, measured_sites, rng
        )


MODELS = {
    "lossless-readout": LossModel.lossless_readout(),
    "ejection-readout": LossModel.ejection_readout(),
    "vacuum-only": LossModel(vacuum_loss=0.1, measurement_loss=0.0),
    "measurement-only": LossModel(vacuum_loss=0.0, measurement_loss=0.3),
    "none": LossModel.none(),
}

#: Shot scenarios with changing site/measured sets (exercises the
#: sampler's plan-cache invalidation mid-stream).
SHOT_SEQUENCE = [
    (tuple(range(30)), tuple(range(10))),
    (tuple(range(30)), tuple(range(10))),
    (tuple(range(25)), (3, 7, 11)),
    (tuple(range(12)), ()),
    (tuple(range(30)), tuple(range(30))),
    ((), ()),
    (tuple(range(17)), (0, 16)),
]


@pytest.fixture(autouse=True)
def fresh_state():
    saved = install_default(None)
    yield
    install_default(saved)


# -- kernel-level equivalence -------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sample_shot_losses_matches_scalar_stream(name):
    """Same losses AND same generator end state as the scalar loop."""
    model = MODELS[name]
    vec = np.random.default_rng(123)
    ref = np.random.default_rng(123)
    for sites, measured in SHOT_SEQUENCE:
        assert model.sample_shot_losses(sites, measured, rng=vec) == \
            reference_scalar_losses(model, sites, measured, ref)
    # The streams stayed in lockstep through every shot.
    assert vec.random() == ref.random()


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_shot_loss_sampler_consumed_stream_identity(name, buffered):
    """ShotLossSampler == per-shot scalar loop on the same seed.

    ``block=5`` forces the buffered path through many partial-block
    refills (the carry-over concatenation), not just whole-block reads.
    """
    model = MODELS[name]
    sampler_gen = np.random.default_rng(77)
    ref_gen = np.random.default_rng(77)
    sampler = ShotLossSampler(model, sampler_gen, buffered=buffered, block=5)
    for sites, measured in SHOT_SEQUENCE * 3:
        assert sampler.sample(sites, measured) == \
            reference_scalar_losses(model, sites, measured, ref_gen)
    if not buffered:
        # Unbuffered draws exactly what it consumes, so even the
        # generator end states coincide (buffered intentionally
        # over-draws into its block).
        assert sampler_gen.random() == ref_gen.random()


def test_shot_loss_sampler_duck_typed_model_delegates():
    """Non-LossModel stubs bypass the vectorized plan entirely."""
    stub = ReferenceScalarLoss(MODELS["ejection-readout"])
    sampler = ShotLossSampler(stub, np.random.default_rng(5), buffered=True)
    ref_gen = np.random.default_rng(5)
    for sites, measured in SHOT_SEQUENCE:
        assert sampler.sample(sites, measured) == reference_scalar_losses(
            stub.model, sites, measured, ref_gen
        )


# -- runner-level bit-identity per strategy -----------------------------------------

#: recompile_time pinned so AlwaysRecompile / CompileSmall timelines carry
#: no wall-clock measurements; with include_compile_event=False every
#: RunResult field below is then a pure function of the RNG stream.
TIMING = TimingModel(recompile_time=0.05)


def _run_result(strategy_name, loss_model, seed=11):
    runner = ShotRunner(
        make_strategy(strategy_name),
        build_circuit("bv", 6),
        Topology.square(5, 3.0),
        config=CompilerConfig(max_interaction_distance=3.0),
        loss_model=loss_model,
        timing=TIMING,
        rng=seed,
    )
    return runner.run(max_shots=30, include_compile_event=False)


def _result_bytes(result):
    return json.dumps(encode(result), sort_keys=True).encode()


@pytest.mark.parametrize("model_name",
                         ["lossless-readout", "ejection-readout", "none"])
@pytest.mark.parametrize("strategy", STRATEGY_ORDER + ["always reload"])
def test_runner_bit_identical_to_scalar_reference(strategy, model_name):
    """Full ShotRunner.run through the vectorized (buffered) sampler vs
    the scalar reference loop: byte-identical serialized RunResult."""
    model = MODELS[model_name]
    vectorized = _run_result(strategy, model)
    reference = _run_result(strategy, ReferenceScalarLoss(model))
    assert _result_bytes(vectorized) == _result_bytes(reference)


# -- worker-count invariance through the sweep engine -------------------------------


def _specs():
    return [
        ShotSpec(
            strategy=name,
            benchmark="bv",
            program_size=6,
            grid_side=5,
            mid=3.0,
            max_shots=25,
            seed=0,  # overwritten by the key-derived seed
            timing=TIMING,
            include_compile_event=False,
        )
        for name in ("always reload", "virtual remapping", "recompile")
    ]


def test_run_shot_grid_map_jobs_invariant(tmp_path):
    """jobs=1 and jobs=2 produce byte-identical RunResults."""
    with Session(jobs=1, cache_dir=str(tmp_path)).activate():
        serial = run_shot_grid_map(_specs(), experiment="shot-kernel-suite")
    with Session(jobs=2, cache_dir=str(tmp_path)).activate():
        parallel = run_shot_grid_map(_specs(), experiment="shot-kernel-suite")
    assert [_result_bytes(r) for r in serial] == \
        [_result_bytes(r) for r in parallel]
