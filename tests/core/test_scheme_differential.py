"""The scheme classes' members against the per-scheme functions they
replaced (``tests/core/oracles.py``, verbatim from 493987e) - with
``==``, never ``approx``: every table, cache key and digest downstream
holds these numbers to the last bit."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.describing_function import (
    df_double_threshold,
    df_single_threshold,
    neg_inv_relative_df,
    relative_df,
)
from repro.core.marking import (
    DoubleThresholdParams,
    NullMarker,
    SingleThresholdParams,
    scheme_for,
)
from repro.core.nyquist import default_amplitude_grid
from repro.experiments.protocols import TESTBED, paper_config
from tests.core import oracles

KB = 1024
MSS = 1500

#: The paper's thresholds, the testbed's (32 KB; 28/34 KB, in packets),
#: and the three non-zero gaps of the sensitivity stage.
SINGLE = [(40.0,), (32 * KB / MSS,)]
DOUBLE = [
    (30.0, 50.0),
    (28 * KB / MSS, 34 * KB / MSS),
    (35.0, 45.0),
    (25.0, 55.0),
    (40.0, 40.0),
]
#: Amplitudes as multiples of the domain edge, the edge itself included.
RATIOS = [1.0, 1.0 + 1e-9, 1.0 + 1e-6, 1.05, math.sqrt(2.0), 2.0, 7.3, 50.0]


def test_table_holds_the_thresholds_under_test():
    assert TESTBED["dctcp"][0].thresholds == SINGLE[1]
    assert TESTBED["dt-dctcp"][0].thresholds == DOUBLE[1]


@pytest.mark.parametrize("thresholds", SINGLE)
def test_single_threshold_members(thresholds):
    (k,) = thresholds
    scheme = scheme_for(thresholds)
    assert scheme == SingleThresholdParams(k=k)
    assert scheme.label == oracles.threshold_label(thresholds)
    assert scheme.worst_case_amplitude() == oracles.worst_case_amplitude(scheme)
    assert scheme.rightmost() == complex(
        oracles.max_neg_inv_relative_df_single(k), 0.0
    )
    assert scheme.rightmost().real == oracles.max_neg_inv_relative_df_single(k)
    for ratio in RATIOS:
        x = ratio * k
        assert scheme.df(x) == oracles.df_single_threshold(x, k)
        assert relative_df(scheme, x) == oracles.relative_df_single(x, k)
        if ratio > 1.0:
            assert neg_inv_relative_df(scheme, x) == (
                oracles.neg_inv_relative_df_single(x, k)
            )
        for bias in (0.0, 0.5 * k, k, 1.5 * k):
            assert scheme.df(x, bias) == oracles.df_relay_with_bias(x, k, bias)
    with pytest.raises(ValueError):
        neg_inv_relative_df(scheme, k)  # N0 = 0 at the edge, as before


@pytest.mark.parametrize("thresholds", DOUBLE)
def test_double_threshold_members(thresholds):
    k1, k2 = thresholds
    scheme = scheme_for(thresholds)
    assert scheme == DoubleThresholdParams(k1=k1, k2=k2)
    assert scheme.label == oracles.threshold_label(thresholds)
    assert scheme.worst_case_amplitude() == oracles.worst_case_amplitude(scheme)
    assert scheme.rightmost() == (
        oracles.max_real_neg_inv_relative_df_double(k1, k2)
    )
    for ratio in RATIOS:
        x = ratio * k2
        assert scheme.df(x) == oracles.df_double_threshold(x, k1, k2)
        assert relative_df(scheme, x) == oracles.relative_df_double(x, k1, k2)
        if relative_df(scheme, x) != 0:  # zero gap, at the edge: undefined
            assert neg_inv_relative_df(scheme, x) == (
                oracles.neg_inv_relative_df_double(x, k1, k2)
            )


@st.composite
def biased_points(draw):
    k1 = draw(st.floats(min_value=0.5, max_value=200.0))
    k2 = k1 + draw(st.floats(min_value=0.0, max_value=200.0))
    x = k2 * draw(st.floats(min_value=1.0, max_value=60.0))
    bias = draw(st.floats(min_value=0.0, max_value=1.0)) * k1
    return k1, k2, x, bias


@given(point=biased_points())
@settings(max_examples=300, deadline=None)
def test_closed_forms_on_a_random_grid(point):
    k1, k2, x, bias = point
    relay = SingleThresholdParams(k=k2)
    assert relay.df(x) == oracles.df_single_threshold(x, k2)
    assert relay.df(x, bias) == oracles.df_relay_with_bias(x, k2, bias)
    assert relative_df(relay, x) == oracles.relative_df_single(x, k2)
    hysteresis = DoubleThresholdParams(k1=k1, k2=k2)
    assert hysteresis.df(x, bias) == (
        oracles.df_double_threshold(x, k1, k2, bias)
    )
    assert relative_df(hysteresis, x) == oracles.relative_df_double(x, k1, k2)
    if relative_df(hysteresis, x) != 0:  # zero gap, at the edge: undefined
        assert neg_inv_relative_df(hysteresis, x) == (
            oracles.neg_inv_relative_df_double(x, k1, k2)
        )


def test_the_relay_is_not_the_zero_gap_hysteresis():
    """Why DCTCP keeps its own closed form: Eq. 27 at ``K1 = K2 = K``
    equals Eq. 22 analytically but not in the last bit (``2/pi * s`` vs
    ``(s + s)/pi``), and ``calibrate_gain_scale`` would carry the
    difference into every table."""
    scheme = SingleThresholdParams(k=40.0)
    amplitudes = [float(x) for x in default_amplitude_grid(scheme)]
    differing = sum(
        df_single_threshold(x, 40.0) != df_double_threshold(x, 40.0, 40.0)
        for x in amplitudes
    )
    assert 0 < differing < len(amplitudes)
    for x in amplitudes:
        assert df_single_threshold(x, 40.0) == pytest.approx(
            df_double_threshold(x, 40.0, 40.0), rel=1e-15
        )


def _same_marker(ours, theirs):
    assert type(ours) is type(theirs)
    assert repr(ours) == repr(theirs)  # thresholds, deadband, state


@pytest.mark.parametrize("thresholds", SINGLE + DOUBLE[:4] + [(30.0, 34.0)])
def test_markers(thresholds):
    _same_marker(
        scheme_for(thresholds).marker(), oracles.marker_factory(thresholds)()
    )
    for deadband in (0.0, 0.25, 0.5, 2.0):
        _same_marker(
            scheme_for(thresholds).marker(deadband),
            oracles.marker_factory(thresholds, deadband)(),
        )


def test_no_thresholds_is_a_droptail_queue():
    assert oracles.marker_factory(()) is NullMarker
    assert paper_config("reno").marker_factory is NullMarker
