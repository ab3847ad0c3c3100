"""Property-based tests for the describing functions (hypothesis)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.describing_function import (
    df_double_threshold,
    df_single_threshold,
    neg_inv_relative_df,
    numeric_df_double,
    numeric_df_single,
    relative_df,
)
from repro.core.marking import DoubleThresholdParams, SingleThresholdParams

thresholds = st.floats(min_value=1.0, max_value=200.0)
ratios = st.floats(min_value=1.001, max_value=50.0)


@st.composite
def threshold_pairs(draw):
    k1 = draw(st.floats(min_value=1.0, max_value=100.0))
    gap = draw(st.floats(min_value=0.0, max_value=100.0))
    return k1, k1 + gap


class TestSingleThresholdProperties:
    @given(k=thresholds, ratio=ratios)
    def test_real_and_nonnegative(self, k, ratio):
        value = df_single_threshold(ratio * k, k)
        assert value.imag == 0.0
        assert value.real >= 0.0

    @given(k=thresholds, ratio=ratios)
    def test_relative_df_bounded_by_one_over_pi(self, k, ratio):
        """max N0dc = 1/pi is the analytic landmark behind Theorem 1."""
        assert relative_df(SingleThresholdParams(k), ratio * k).real <= 1.0 / math.pi + 1e-12

    @given(k=thresholds, ratio=ratios)
    def test_neg_inv_left_of_minus_pi(self, k, ratio):
        assert (
            neg_inv_relative_df(SingleThresholdParams(k), ratio * k).real
            <= -math.pi + 1e-9
        )

    @given(k=thresholds)
    @settings(max_examples=25)
    def test_numeric_agrees_with_closed_form(self, k):
        for ratio in (1.1, 2.0, 8.0):
            x = ratio * k
            closed = df_single_threshold(x, k)
            numeric = numeric_df_single(x, k, n_samples=2048)
            assert abs(closed - numeric) < 5e-3 / k

    @given(k=thresholds, ratio=ratios)
    def test_scale_invariance(self, k, ratio):
        """N(cX, cK) = N(X, K)/c: the DF scales inversely with amplitude."""
        x = ratio * k
        c = 3.0
        assert df_single_threshold(c * x, c * k) == pytest.approx(
            df_single_threshold(x, k) / c, rel=1e-9
        )


class TestDoubleThresholdProperties:
    @given(pair=threshold_pairs(), ratio=ratios)
    def test_imaginary_part_nonnegative(self, pair, ratio):
        k1, k2 = pair
        value = df_double_threshold(ratio * k2, k1, k2)
        assert value.imag >= 0.0
        assert value.real >= 0.0

    @given(pair=threshold_pairs(), ratio=ratios)
    def test_imag_proportional_to_gap(self, pair, ratio):
        """Eq. 27: Im N_dt = (K2-K1)/(pi X^2) exactly."""
        k1, k2 = pair
        x = ratio * k2
        assert df_double_threshold(x, k1, k2).imag == pytest.approx(
            (k2 - k1) / (math.pi * x * x), rel=1e-9
        )

    @given(k=thresholds, ratio=ratios)
    def test_degenerates_to_single_threshold(self, k, ratio):
        x = ratio * k
        assert df_double_threshold(x, k, k) == pytest.approx(
            df_single_threshold(x, k), rel=1e-9, abs=1e-15
        )

    @given(pair=threshold_pairs(), ratio=ratios)
    def test_neg_inv_in_second_quadrant(self, pair, ratio):
        k1, k2 = pair
        if k2 == k1:
            return  # degenerate: purely real
        v = neg_inv_relative_df(DoubleThresholdParams(k1, k2), ratio * k2)
        assert v.real < 0.0
        assert v.imag > 0.0

    @given(pair=threshold_pairs())
    @settings(max_examples=25)
    def test_numeric_agrees_with_closed_form(self, pair):
        k1, k2 = pair
        for ratio in (1.1, 2.0, 8.0):
            x = ratio * k2
            closed = df_double_threshold(x, k1, k2)
            numeric = numeric_df_double(x, k1, k2, n_samples=2048)
            assert abs(closed - numeric) < 5e-3 / k2

    @given(pair=threshold_pairs(), ratio=ratios)
    def test_relative_df_magnitude_bounded(self, pair, ratio):
        """|N0dt| <= K2 * (2/(pi X)) * ... stays below 2/pi + gap term."""
        k1, k2 = pair
        value = relative_df(DoubleThresholdParams(k1, k2), ratio * k2)
        assert abs(value) <= 1.0  # loose but universal sanity bound


class TestPhaseOrdering:
    @given(pair=threshold_pairs(), ratio=ratios)
    def test_dt_never_lags_dc(self, pair, ratio):
        """DT-DCTCP's DF phase >= DCTCP's (0): hysteresis adds lead."""
        k1, k2 = pair
        x = ratio * k2
        dt_phase = math.atan2(
            df_double_threshold(x, k1, k2).imag,
            df_double_threshold(x, k1, k2).real,
        )
        assert dt_phase >= 0.0
