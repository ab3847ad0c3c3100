"""Property-based tests for the linearised plant and the margins."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.margins import classical_margins
from repro.core.parameters import (
    DoubleThresholdParams,
    NetworkParams,
    SingleThresholdParams,
)
from repro.core.transfer_function import (
    dc_gain,
    open_loop,
    plant,
    plant_poles,
    plant_rational_coefficients,
    plant_zero,
)


@st.composite
def networks(draw):
    capacity = draw(st.floats(min_value=1e4, max_value=1e7))
    n_flows = draw(st.integers(min_value=1, max_value=200))
    rtt = draw(st.floats(min_value=1e-5, max_value=1e-2))
    g = draw(st.floats(min_value=1 / 64, max_value=0.9))
    return NetworkParams(capacity=capacity, n_flows=n_flows, rtt=rtt, g=g)


class TestPlantProperties:
    @given(net=networks())
    @settings(max_examples=100)
    def test_poles_and_zero_positive(self, net):
        assert all(p > 0 for p in plant_poles(net))
        assert plant_zero(net) > 0

    @given(net=networks())
    @settings(max_examples=100)
    def test_dc_gain_positive_and_matches_evaluation(self, net):
        value = complex(plant(0.0, net))
        assert value.imag == 0.0
        assert value.real > 0.0
        assert np.isclose(value.real, dc_gain(net), rtol=1e-9)

    @given(net=networks(), w=st.floats(min_value=1.0, max_value=1e7))
    @settings(max_examples=150)
    def test_delay_preserves_magnitude(self, net, w):
        assert np.isclose(
            abs(complex(open_loop(w, net))),
            abs(complex(plant(1j * w, net))),
            rtol=1e-9,
        )

    @given(net=networks(), w=st.floats(min_value=1.0, max_value=1e7))
    @settings(max_examples=100)
    def test_conjugate_symmetry(self, net, w):
        """G(-jw) = conj(G(jw)): the loop is a real system."""
        plus = complex(plant(1j * w, net))
        minus = complex(plant(-1j * w, net))
        assert np.isclose(minus.real, plus.real, rtol=1e-9)
        assert np.isclose(minus.imag, -plus.imag, rtol=1e-9)

    @given(net=networks())
    @settings(max_examples=50)
    def test_rational_form_consistent(self, net):
        num, den = plant_rational_coefficients(net)
        for w in (10.0, 1e3, 1e5):
            s = 1j * w
            direct = complex(plant(s, net))
            rational = complex(np.polyval(num, s) / np.polyval(den, s))
            assert np.isclose(rational, direct, rtol=1e-6)

    @given(net=networks())
    @settings(max_examples=100)
    def test_magnitude_rolls_off(self, net):
        low = abs(complex(plant(1j * 1.0, net)))
        high = abs(complex(plant(1j * 1e8, net)))
        assert high < low


@st.composite
def threshold_params(draw):
    if draw(st.booleans()):
        return SingleThresholdParams(
            k=draw(st.floats(min_value=1.0, max_value=200.0))
        )
    k1 = draw(st.floats(min_value=1.0, max_value=100.0))
    gap = draw(st.floats(min_value=0.1, max_value=100.0))
    return DoubleThresholdParams(k1=k1, k2=k1 + gap)


class TestMarginProperties:
    @given(params=threshold_params())
    @settings(max_examples=40, deadline=None)
    def test_worst_case_amplitude_in_domain(self, params):
        x = params.worst_case_amplitude()
        edge = params.k if isinstance(params, SingleThresholdParams) else params.k2
        assert x >= edge

    @given(
        params=threshold_params(),
        scale=st.floats(min_value=0.5, max_value=10.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_gain_margin_inverse_in_scale(self, params, scale):
        from repro.core.parameters import paper_network

        net = paper_network(30)
        base = classical_margins(net, params, loop_gain_scale=1.0,
                                 n_grid=20000)
        scaled = classical_margins(net, params, loop_gain_scale=scale,
                                   n_grid=20000)
        if np.isfinite(base.gain_margin) and np.isfinite(scaled.gain_margin):
            assert np.isclose(
                scaled.gain_margin * scale, base.gain_margin, rtol=1e-3
            )
