"""Tests for the bias-corrected describing function."""

import math

import pytest

from repro.core.describing_function import (
    df_single_threshold,
    numeric_df_single,
)
from repro.experiments.df_bias import predicted_amplitude


class TestBiasedRelayDf:
    def test_zero_bias_reduces_to_eq22(self):
        x, k = 70.0, 40.0
        assert df_single_threshold(x, k, bias=0.0) == pytest.approx(
            df_single_threshold(x, k)
        )

    def test_bias_at_threshold_is_ideal_relay(self):
        for x in (5.0, 20.0, 100.0):
            assert df_single_threshold(x, 40.0, bias=40.0) == pytest.approx(
                complex(2.0 / (math.pi * x), 0.0)
            )

    def test_bias_above_threshold_symmetric(self):
        # |K - bias| enters squared: +d and -d give the same gain.
        x, k = 30.0, 40.0
        lo = df_single_threshold(x, k, bias=k - 10.0)
        hi = df_single_threshold(x, k, bias=k + 10.0)
        assert lo == pytest.approx(hi)

    def test_domain_restriction(self):
        with pytest.raises(ValueError):
            df_single_threshold(5.0, 40.0, bias=0.0)  # |K-bias| > X

    def test_matches_numeric_fourier_with_offset(self):
        x, k, bias = 25.0, 40.0, 30.0
        closed = df_single_threshold(x, k, bias)
        numeric = numeric_df_single(x, k, offset=bias)
        assert closed == pytest.approx(numeric, abs=1e-3)

    def test_small_amplitude_allowed_at_operating_bias(self):
        """The whole point: at bias = K even tiny oscillations have a
        defined DF, so a limit cycle can exist at any loop gain."""
        value = df_single_threshold(1.0, 40.0, bias=40.0)
        assert value.real == pytest.approx(2.0 / math.pi)


class TestParameterFreePrediction:
    def test_amplitude_grows_with_n_through_the_regime(self):
        amps = [predicted_amplitude(n) for n in (10, 25, 40)]
        assert amps == sorted(amps)

    def test_amplitude_scale_matches_simulation_order(self):
        # N = 10: predicted ~10.7 packets; the paper-parameter packet
        # simulation measures ~11.5 (see repro.experiments.df_bias).
        assert predicted_amplitude(10) == pytest.approx(10.7, abs=1.0)

    def test_closed_form(self):
        from repro.core.nyquist import principal_phase_crossover
        from repro.core.parameters import (
            SingleThresholdParams,
            paper_network,
        )

        crossover = principal_phase_crossover(
            paper_network(20), SingleThresholdParams(k=40.0)
        )
        assert predicted_amplitude(20) == pytest.approx(
            2.0 * 40.0 * crossover.magnitude / math.pi
        )
