"""Unit tests for the describing functions (Eq. 22-23, 27-28)."""

import math

import pytest

from repro.core.describing_function import (
    df_double_threshold,
    df_phase_degrees,
    df_single_threshold,
    neg_inv_relative_df,
    numeric_df_double,
    numeric_df_from_marker,
    numeric_df_from_waveform,
    numeric_df_single,
    relative_df,
)
from repro.core.marking import (
    DoubleThresholdMarker,
    DoubleThresholdParams,
    SingleThresholdMarker,
    SingleThresholdParams,
)

K, K1, K2 = 40.0, 30.0, 50.0
DC = SingleThresholdParams(k=K)
DT = DoubleThresholdParams(k1=K1, k2=K2)


class TestSingleThresholdDf:
    def test_closed_form_matches_eq22(self):
        x = 60.0
        expected = (2.0 / (math.pi * x)) * math.sqrt(1.0 - (K / x) ** 2)
        assert df_single_threshold(x, K) == pytest.approx(expected)

    def test_purely_real(self):
        for ratio in (1.1, 2.0, 10.0):
            assert df_single_threshold(ratio * K, K).imag == 0.0

    def test_zero_at_amplitude_equal_threshold(self):
        assert df_single_threshold(K, K) == 0.0

    def test_vanishes_at_large_amplitude(self):
        assert abs(df_single_threshold(1e6 * K, K)) < 1e-6

    def test_domain_restriction(self):
        with pytest.raises(ValueError):
            df_single_threshold(K - 1.0, K)

    def test_relative_df_is_k_times_df(self):
        x = 70.0
        assert relative_df(DC, x) == pytest.approx(
            K * df_single_threshold(x, K)
        )

    def test_relative_df_max_is_one_over_pi(self):
        # N0dc attains 1/pi at X = K*sqrt(2).
        assert relative_df(DC, K * math.sqrt(2.0)).real == pytest.approx(
            1.0 / math.pi
        )

    def test_numeric_matches_closed_form(self):
        for ratio in (1.05, 1.5, 3.0):
            x = ratio * K
            assert numeric_df_single(x, K) == pytest.approx(
                df_single_threshold(x, K), abs=1e-4
            )


class TestDoubleThresholdDf:
    def test_closed_form_matches_eq27(self):
        x = 80.0
        b1 = (
            math.sqrt(1 - (K1 / x) ** 2) + math.sqrt(1 - (K2 / x) ** 2)
        ) / math.pi
        a1 = (K2 - K1) / (math.pi * x)
        expected = complex(b1 / x, a1 / x)
        assert df_double_threshold(x, K1, K2) == pytest.approx(expected)

    def test_positive_imaginary_part_everywhere(self):
        """The phase lead that makes DT-DCTCP stabilising (Section V-D)."""
        for ratio in (1.01, 1.5, 2.0, 10.0):
            assert df_double_threshold(ratio * K2, K1, K2).imag > 0.0

    def test_reduces_to_single_threshold_when_gap_zero(self):
        x = 90.0
        dt = df_double_threshold(x, K, K)
        dc = df_single_threshold(x, K)
        assert dt == pytest.approx(dc)

    def test_domain_restriction_uses_k2(self):
        with pytest.raises(ValueError):
            df_double_threshold(K2 - 1.0, K1, K2)

    def test_relative_df_uses_k2(self):
        x = 80.0
        assert relative_df(DT, x) == pytest.approx(
            K2 * df_double_threshold(x, K1, K2)
        )

    def test_numeric_matches_closed_form(self):
        for ratio in (1.05, 1.5, 3.0):
            x = ratio * K2
            assert numeric_df_double(x, K1, K2) == pytest.approx(
                df_double_threshold(x, K1, K2), abs=1e-4
            )

    def test_phase_lead_in_degrees(self):
        assert 0.0 < df_phase_degrees(df_double_threshold(80.0, K1, K2)) < 90.0


class TestNegInvRelativeDf:
    def test_single_on_negative_real_axis(self):
        for ratio in (1.1, 2.0, 5.0):
            v = neg_inv_relative_df(DC, ratio * K)
            assert v.real < 0.0
            assert v.imag == pytest.approx(0.0)

    def test_single_maximum_is_minus_pi(self):
        assert DC.rightmost().real == pytest.approx(-math.pi)
        # ... attained at X = K*sqrt(2):
        at_peak = neg_inv_relative_df(DC, K * math.sqrt(2.0))
        assert at_peak.real == pytest.approx(-math.pi)
        # ... and it is a maximum:
        assert neg_inv_relative_df(DC, 1.1 * K).real < -math.pi
        assert neg_inv_relative_df(DC, 5.0 * K).real < -math.pi

    def test_single_undefined_at_domain_edge(self):
        with pytest.raises(ValueError):
            neg_inv_relative_df(DC, K)

    def test_double_has_positive_imaginary_part(self):
        """-1/N0dt sits *above* the real axis (Figure 7b)."""
        for ratio in (1.01, 1.5, 4.0):
            v = neg_inv_relative_df(DT, ratio * K2)
            assert v.real < 0.0
            assert v.imag > 0.0

    def test_double_rightmost_point(self):
        best = DT.rightmost()
        assert best.real < 0.0
        assert best.imag > 0.0
        # Rightmost point of DT lies to the right of DCTCP's -pi: the
        # geometry alone does not decide stability - position off the
        # axis does (Section V-D).
        assert best.real > -math.pi

    def test_max_single_requires_positive_k(self):
        with pytest.raises(ValueError):
            SingleThresholdParams(k=0.0).rightmost()


class TestNumericDf:
    def test_from_waveform_pure_fundamental(self):
        # y = sin(phase) has DF exactly 1/X... with X = 2: N = 0.5.
        value = numeric_df_from_waveform(math.sin, amplitude=2.0)
        assert value == pytest.approx(0.5 + 0j, abs=1e-6)

    def test_from_waveform_cosine_gives_imaginary(self):
        value = numeric_df_from_waveform(math.cos, amplitude=1.0)
        assert value == pytest.approx(1j, abs=1e-6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            numeric_df_from_waveform(math.sin, amplitude=0.0)
        with pytest.raises(ValueError):
            numeric_df_from_waveform(math.sin, amplitude=1.0, n_samples=4)
        with pytest.raises(ValueError):
            numeric_df_from_marker(
                SingleThresholdMarker.from_threshold(1.0), amplitude=0.0
            )

    def test_live_single_marker_matches_closed_form(self):
        marker = SingleThresholdMarker.from_threshold(K)
        x = 70.0
        assert numeric_df_from_marker(marker, x) == pytest.approx(
            df_single_threshold(x, K), abs=1e-3
        )

    def test_live_double_marker_matches_closed_form(self):
        """The causal hysteresis state machine reproduces Figure 8 exactly."""
        marker = DoubleThresholdMarker.from_thresholds(K1, K2)
        for ratio in (1.1, 1.6, 2.5):
            x = ratio * K2
            assert numeric_df_from_marker(marker, x) == pytest.approx(
                df_double_threshold(x, K1, K2), abs=1e-3
            )

    def test_live_marker_with_offset_bias(self):
        # Oscillation around the setpoint 40 with thresholds at absolute
        # levels: equivalent to zero-offset thresholds shifted by 40.
        marker = SingleThresholdMarker.from_threshold(K)
        biased = numeric_df_from_marker(marker, 30.0, offset=40.0)
        equivalent = numeric_df_from_marker(
            SingleThresholdMarker.from_threshold(0.0000001), 30.0
        )
        assert biased == pytest.approx(equivalent, abs=1e-3)
