"""Unit tests for the timing and atom-loss hardware models."""

import pytest

from repro.hardware.loss import (
    EJECTION_READOUT_LOSS,
    LOSSLESS_READOUT_LOSS,
    VACUUM_LOSS_PROBABILITY,
    LossModel,
)
from repro.hardware.timing import TimingModel
from repro.utils.rng import ensure_rng


class TestTimingModel:
    def test_paper_defaults(self):
        t = TimingModel.paper_defaults()
        assert t.reload_time == pytest.approx(0.3)
        assert t.fluorescence_time == pytest.approx(6e-3)
        assert t.remap_time == pytest.approx(40e-9)

    def test_swap_duration_is_three_cx(self):
        t = TimingModel()
        assert t.swap_duration() == pytest.approx(3 * t.gate_duration(2))

    def test_gate_duration_fallback(self):
        t = TimingModel()
        assert t.gate_duration(5) == t.gate_duration(3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TimingModel(reload_time=-1.0)


class TestLossModelRates:
    def test_paper_constants(self):
        m = LossModel.lossless_readout()
        assert m.vacuum_loss == VACUUM_LOSS_PROBABILITY
        assert m.measurement_loss == LOSSLESS_READOUT_LOSS

    def test_ejection_mode(self):
        m = LossModel.ejection_readout()
        assert m.measurement_loss == EJECTION_READOUT_LOSS

    def test_none(self):
        m = LossModel(vacuum_loss=0.0, measurement_loss=0.0)
        assert m.expected_losses_per_shot(100, 30) == 0.0

    def test_improvement_scales_down(self):
        m = LossModel.lossless_readout(improvement_factor=10.0)
        assert m.effective_measurement_loss == pytest.approx(0.002)
        assert m.effective_vacuum_loss == pytest.approx(0.00068)

    def test_validation(self):
        with pytest.raises(ValueError):
            LossModel(vacuum_loss=2.0)
        with pytest.raises(ValueError):
            LossModel(improvement_factor=0.0)

    def test_expected_losses(self):
        m = LossModel(vacuum_loss=0.01, measurement_loss=0.5)
        expected = m.expected_losses_per_shot(10, 2)
        combined = 1 - (1 - 0.01) * (1 - 0.5)
        assert expected == pytest.approx(8 * 0.01 + 2 * combined)

    def test_expected_losses_all_sites_measured(self):
        # Boundary: num_measured == num_sites is valid (every atom read out).
        m = LossModel(vacuum_loss=0.01, measurement_loss=0.5)
        combined = 1 - (1 - 0.01) * (1 - 0.5)
        assert m.expected_losses_per_shot(10, 10) == pytest.approx(10 * combined)

    def test_expected_losses_measured_exceeds_sites(self):
        m = LossModel.lossless_readout()
        with pytest.raises(ValueError, match="num_measured"):
            m.expected_losses_per_shot(10, 11)

    def test_expected_losses_negative_inputs(self):
        m = LossModel.lossless_readout()
        with pytest.raises(ValueError, match="num_sites"):
            m.expected_losses_per_shot(-1, 0)
        with pytest.raises(ValueError, match="num_measured"):
            m.expected_losses_per_shot(10, -2)


class TestLossSampling:
    def test_zero_rates_no_losses(self):
        m = LossModel(vacuum_loss=0.0, measurement_loss=0.0)
        assert m.sample_shot_losses(range(100), range(10), rng=0) == set()

    def test_certain_measurement_loss(self):
        m = LossModel(vacuum_loss=0.0, measurement_loss=1.0)
        lost = m.sample_shot_losses(range(10), [3, 4], rng=0)
        assert lost == {3, 4}

    def test_losses_within_array(self):
        m = LossModel(vacuum_loss=0.5, measurement_loss=0.5)
        lost = m.sample_shot_losses(range(20), range(5), rng=1)
        assert lost <= set(range(20))

    def test_statistical_rate(self):
        m = LossModel(vacuum_loss=0.0, measurement_loss=0.02)
        rng = ensure_rng(42)
        total = sum(
            len(m.sample_shot_losses(range(100), range(30), rng=rng))
            for _ in range(2000)
        )
        mean = total / 2000
        assert mean == pytest.approx(0.6, rel=0.2)  # 30 * 2%

    def test_deterministic_given_seed(self):
        m = LossModel.lossless_readout()
        a = m.sample_shot_losses(range(50), range(50), rng=7)
        b = m.sample_shot_losses(range(50), range(50), rng=7)
        assert a == b
