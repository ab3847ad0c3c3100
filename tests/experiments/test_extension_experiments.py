"""Tests for the extension experiments (deadlines, buffer pressure, df_bias)."""

import pytest

from repro.experiments import deadlines
from repro.experiments.buffer_pressure import run_case
from repro.experiments.df_bias import predicted_dt_amplitude
from repro.experiments.protocols import dctcp_testbed


class TestDeadlineExperiment:
    """``figure deadlines`` itself: three 2 MB transfers with an 11 ms
    deadline (infeasible at fair share, ~13.5 ms) against five loose
    ones.  Deadline-blind DCTCP misses all three; D2TCP's
    gamma-corrected penalties deliver them, costing the loose group
    about a millisecond."""

    @pytest.fixture(scope="class")
    def results(self):
        by_name = {r.protocol: r for r in deadlines.run()}
        return by_name["DCTCP"], by_name["D2TCP"]

    def test_fair_share_misses_tight_deadline(self, results):
        dctcp, _ = results
        assert dctcp.tight_met == 0

    def test_d2tcp_meets_at_least_as_many(self, results):
        dctcp, d2tcp = results
        assert d2tcp.tight_met > dctcp.tight_met
        assert d2tcp.tight_mean_fct < dctcp.tight_mean_fct

    def test_loose_group_unharmed(self, results):
        _, d2tcp = results
        assert d2tcp.loose_met == d2tcp.loose_total


class TestBufferPressureExperiment:
    def test_background_free_incast_clean(self):
        result = run_case(
            dctcp_testbed(), None, "alone", n_incast_flows=10, n_queries=3
        )
        assert result.incast_goodput_bps > 0.9e9
        assert result.incast_timeouts == 0
        assert result.background_queue_peak_bytes == 0.0
        assert result.pool_rejections == 0


class TestBiasCorrectedDt:
    def test_dt_predicted_stable_in_valid_regime(self):
        """The biased hysteresis locus rides above the plant's reach."""
        for n in (10, 25, 40):
            assert predicted_dt_amplitude(n) is None

    def test_narrow_gap_behaves_like_relay(self):
        """Shrinking the gap to ~0 recovers a DC-like (real-axis) locus,
        which the plant does cross - an intersection reappears."""
        x = predicted_dt_amplitude(10, k1=39.9, k2=40.1)
        assert x is not None
        # ... near the relay's bias-corrected amplitude (~10.7).
        assert 5.0 < x < 20.0
