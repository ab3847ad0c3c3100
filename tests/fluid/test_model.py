"""Unit tests for the fluid-model right-hand side (Eq. 1-3)."""

import pytest

from repro.core.marking import DoubleThresholdMarker, SingleThresholdMarker
from repro.core.parameters import (
    DoubleThresholdParams,
    SingleThresholdParams,
    paper_dctcp,
    paper_dt_dctcp,
    paper_network,
)
from repro.fluid.model import FluidModel, FluidState, fluid_model


@pytest.fixture
def net():
    return paper_network(10)


@pytest.fixture
def model(net):
    return fluid_model(net, paper_dctcp())


class TestDerivatives:
    def test_window_grows_without_marking(self, net, model):
        state = FluidState(window=10.0, alpha=0.5, queue=10.0)
        dw, _, _ = model.derivatives(state, delayed_marking=0.0)
        assert dw == pytest.approx(1.0 / net.rtt)

    def test_window_shrinks_under_full_marking(self, net, model):
        # dW = 1/R - W*alpha/(2R) with p = 1: negative for W*alpha > 2.
        state = FluidState(window=10.0, alpha=1.0, queue=10.0)
        dw, _, _ = model.derivatives(state, delayed_marking=1.0)
        assert dw == pytest.approx((1.0 - 10.0 * 1.0 / 2.0) / net.rtt)
        assert dw < 0.0

    def test_alpha_relaxes_toward_marking(self, net, model):
        state = FluidState(window=10.0, alpha=0.25, queue=0.0)
        da_up = model.derivatives(state, delayed_marking=1.0)[1]
        da_down = model.derivatives(state, delayed_marking=0.0)[1]
        assert da_up == pytest.approx(net.g / net.rtt * 0.75)
        assert da_down == pytest.approx(-net.g / net.rtt * 0.25)

    def test_queue_balance(self, net, model):
        # dq = N W / R - C: zero exactly at W = R C / N.
        w0 = net.window_at_operating_point
        state = FluidState(window=w0, alpha=0.0, queue=20.0)
        assert model.derivatives(state, 0.0)[2] == pytest.approx(0.0, abs=1e-6)
        above = FluidState(window=w0 * 1.1, alpha=0.0, queue=20.0)
        assert model.derivatives(above, 0.0)[2] > 0.0

    def test_fixed_point_has_zero_derivatives(self, net, model):
        op = net.operating_point(40.0)
        state = FluidState(window=op.window, alpha=op.alpha, queue=op.queue)
        dw, da, dq = model.derivatives(state, delayed_marking=op.p)
        scale = 1.0 / net.rtt
        assert dw / scale == pytest.approx(0.0, abs=1e-9)
        assert da / scale == pytest.approx(0.0, abs=1e-9)
        assert dq / scale == pytest.approx(0.0, abs=1e-6)

    def test_empty_queue_cannot_drain(self, model):
        state = FluidState(window=0.001, alpha=0.0, queue=0.0)
        assert model.derivatives(state, 0.0)[2] == 0.0

    def test_full_buffer_cannot_grow(self, net):
        model = fluid_model(net, paper_dctcp(), buffer_packets=100.0)
        state = FluidState(window=1000.0, alpha=0.0, queue=100.0)
        assert model.derivatives(state, 0.0)[2] == 0.0


class TestMarkingCoupling:
    def test_dctcp_marks_at_threshold(self, model):
        assert model.marking(39.0) == 0.0
        assert model.marking(40.0) == 1.0

    def test_dt_dctcp_hysteresis_through_model(self, net):
        model = fluid_model(net, paper_dt_dctcp())
        assert model.marking(25.0) == 0.0
        assert model.marking(35.0) == 1.0  # rising into band
        assert model.marking(60.0) == 1.0
        assert model.marking(49.0) == 0.0  # falling through K2

    def test_custom_params_respected(self, net):
        model = fluid_model(net, SingleThresholdParams(k=10.0))
        assert model.marking(10.0) == 1.0
        dt = fluid_model(net, DoubleThresholdParams(k1=5.0, k2=15.0))
        assert isinstance(dt.marker, DoubleThresholdMarker)
        assert dt.marker.params.k1 == 5.0


class TestRtt:
    def test_fixed_by_default(self, net, model):
        assert model.rtt(0.0) == net.rtt
        assert model.rtt(1000.0) == net.rtt

    def test_variable_rtt_anchored_at_setpoint(self, net):
        model = fluid_model(net, paper_dctcp(), variable_rtt=True)
        # R(setpoint) = R0 by construction (setpoint defaults to K = 40).
        assert model.rtt(40.0) == pytest.approx(net.rtt)
        assert model.rtt(80.0) > net.rtt
        assert model.rtt(0.0) < net.rtt

    def test_variable_rtt_grows_linearly_with_queue(self, net):
        model = fluid_model(net, paper_dctcp(), variable_rtt=True)
        delta = model.rtt(50.0) - model.rtt(40.0)
        assert delta == pytest.approx(10.0 / net.capacity)


class TestClamp:
    def test_window_floor_is_one_packet(self, model):
        clamped = model.clamp(FluidState(window=-5.0, alpha=0.5, queue=10.0))
        assert clamped.window == 1.0

    def test_alpha_clamped_to_unit_interval(self, model):
        assert model.clamp(FluidState(1.0, 1.5, 0.0)).alpha == 1.0
        assert model.clamp(FluidState(1.0, -0.5, 0.0)).alpha == 0.0

    def test_queue_nonnegative_and_bounded(self, net):
        model = fluid_model(net, paper_dctcp(), buffer_packets=100.0)
        assert model.clamp(FluidState(1.0, 0.0, -3.0)).queue == 0.0
        assert model.clamp(FluidState(1.0, 0.0, 150.0)).queue == 100.0

    def test_valid_state_unchanged(self, model):
        state = FluidState(window=5.0, alpha=0.3, queue=25.0)
        assert model.clamp(state) == state


class TestConstruction:
    def test_initial_state_full_pipe(self, net, model):
        state = model.initial_state()
        assert state.window == pytest.approx(net.window_at_operating_point)
        assert state.alpha == 0.0
        assert state.queue == 0.0

    def test_rejects_bad_buffer(self, net):
        with pytest.raises(ValueError):
            FluidModel(net, SingleThresholdMarker.from_threshold(40.0),
                       buffer_packets=0.0)

    def test_rejects_bad_setpoint(self, net):
        with pytest.raises(ValueError):
            FluidModel(net, SingleThresholdMarker.from_threshold(40.0),
                       queue_setpoint=-1.0)

    def test_as_tuple(self):
        assert FluidState(1.0, 2.0, 3.0).as_tuple() == (1.0, 2.0, 3.0)
