"""Unit tests for the RTT estimator / RTO (RFC 6298)."""

import pytest

from repro.sim.tcp.rto import DEFAULT_MIN_RTO, RttEstimator


class TestInitialState:
    def test_initial_rto_respects_bounds(self):
        # RFC 6298's 1 s before the first sample, clamped to the bounds.
        assert RttEstimator(min_rto=0.2).rto == 1.0
        assert RttEstimator(min_rto=2.0, max_rto=5.0).rto == 2.0
        assert RttEstimator(min_rto=0.1, max_rto=0.5).rto == 0.5

    def test_default_min_rto_is_200ms(self):
        # The quantum behind Figure 15's 20x completion-time jump.
        assert DEFAULT_MIN_RTO == pytest.approx(0.2)

    @pytest.mark.parametrize("kwargs", [
        {"min_rto": 0.0},
        {"min_rto": -1.0},
        {"min_rto": 1.0, "max_rto": 0.5},
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            RttEstimator(**kwargs)


class TestSampling:
    def test_first_sample_initialises_rfc6298(self):
        est = RttEstimator(min_rto=1e-3)
        est.on_sample(0.1)
        assert est.srtt == pytest.approx(0.1)
        assert est.rttvar == pytest.approx(0.05)
        assert est.rto == pytest.approx(0.1 + 4 * 0.05)

    def test_subsequent_samples_use_ewma(self):
        est = RttEstimator(min_rto=1e-3)
        est.on_sample(0.1)
        est.on_sample(0.2)
        expected_var = 0.75 * 0.05 + 0.25 * abs(0.2 - 0.1)
        expected_srtt = 0.1 + 0.125 * (0.2 - 0.1)
        assert est.rttvar == pytest.approx(expected_var)
        assert est.srtt == pytest.approx(expected_srtt)

    def test_constant_samples_converge(self):
        est = RttEstimator(min_rto=1e-6)
        for _ in range(200):
            est.on_sample(0.05)
        assert est.srtt == pytest.approx(0.05)
        assert est.rttvar == pytest.approx(0.0, abs=1e-4)

    def test_rto_clamped_to_min(self):
        est = RttEstimator(min_rto=0.2)
        for _ in range(50):
            est.on_sample(100e-6)  # datacenter RTTs
        assert est.rto == 0.2

    def test_rto_clamped_to_max(self):
        est = RttEstimator(min_rto=0.1, max_rto=1.0)
        est.on_sample(10.0)
        assert est.rto == 1.0

    def test_rejects_nonpositive_sample(self):
        with pytest.raises(ValueError):
            RttEstimator().on_sample(0.0)

    def test_jitter_inflates_rto(self):
        smooth = RttEstimator(min_rto=1e-6)
        jittery = RttEstimator(min_rto=1e-6)
        for i in range(100):
            smooth.on_sample(0.05)
            jittery.on_sample(0.05 + (0.02 if i % 2 else -0.02))
        assert jittery.rto > smooth.rto


class TestBackoff:
    def test_doubles_until_max(self):
        est = RttEstimator(min_rto=0.2, max_rto=5.0)
        assert est.backoff() == pytest.approx(2.0)
        assert est.backoff() == pytest.approx(4.0)
        assert est.backoff() == pytest.approx(5.0)
        assert est.backoff() == pytest.approx(5.0)

    def test_fresh_sample_undoes_backoff(self):
        est = RttEstimator(min_rto=0.1)
        est.on_sample(0.05)
        est.backoff()
        est.backoff()
        est.on_sample(0.07)
        unbacked = RttEstimator(min_rto=0.1)
        unbacked.on_sample(0.05)
        unbacked.on_sample(0.07)
        assert est.rto == unbacked.rto

    def test_backoff_stands_until_a_sample(self):
        est = RttEstimator(min_rto=0.2)
        est.backoff()
        assert est.rto == pytest.approx(2.0)  # stays backed off
        est.on_sample(0.05)
        assert est.rto == pytest.approx(0.2)  # the estimate, at min_rto
