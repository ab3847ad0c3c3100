"""Unit tests for the fluid-model right-hand side (Eq. 1-3)."""

import math

import numpy as np
import pytest

from repro.core.marking import DoubleThresholdMarker, SingleThresholdMarker
from repro.core.parameters import (
    DoubleThresholdParams,
    SingleThresholdParams,
    paper_dctcp,
    paper_dt_dctcp,
    paper_network,
)
from repro.fluid.integrator import simulate
from repro.fluid.model import FlowClass, FluidModel, FluidState, fluid_model

CAPACITY = 10e9 / (8 * 1500)


@pytest.fixture
def net():
    return paper_network(10)


@pytest.fixture
def model(net):
    return fluid_model(net, paper_dctcp())


def rates(model, window, alpha, queue, p):
    """``(dW/dt, dalpha/dt, dq/dt)`` of a one-class model."""
    dw, da, inflow = model.class_rhs(0)(window, alpha, queue, p)
    return dw, da, model.queue_rate(inflow, queue)


def rtt_at(net, queue):
    """``R(q) = d + q/C`` with ``R(K) = R0`` at the paper's K = 40."""
    return net.rtt + (queue - 40.0) / net.capacity


class TestDerivatives:
    def test_window_grows_without_marking(self, net, model):
        dw, _, _ = rates(model, 10.0, 0.5, 10.0, p=0.0)
        assert dw == pytest.approx(1.0 / rtt_at(net, 10.0))

    def test_window_shrinks_under_full_marking(self, net, model):
        # dW = 1/R - W*alpha/(2R) with p = 1: negative for W*alpha > 2.
        dw, _, _ = rates(model, 10.0, 1.0, 10.0, p=1.0)
        assert dw == pytest.approx((1.0 - 10.0 * 1.0 / 2.0) / rtt_at(net, 10.0))
        assert dw < 0.0

    def test_alpha_relaxes_toward_marking(self, net, model):
        da_up = rates(model, 10.0, 0.25, 40.0, p=1.0)[1]
        da_down = rates(model, 10.0, 0.25, 40.0, p=0.0)[1]
        assert da_up == pytest.approx(net.g / net.rtt * 0.75)
        assert da_down == pytest.approx(-net.g / net.rtt * 0.25)

    def test_queue_balance(self, net, model):
        # dq = N W / R(q) - C: zero at the setpoint for W = R0 C / N.
        w0 = net.window_at_operating_point
        assert rates(model, w0, 0.0, 40.0, 0.0)[2] == pytest.approx(0.0, abs=1e-6)
        assert rates(model, w0 * 1.1, 0.0, 40.0, 0.0)[2] > 0.0

    def test_fixed_point_has_zero_derivatives(self, net, model):
        op = net.operating_point(40.0)
        dw, da, dq = rates(model, op.window, op.alpha, op.queue, op.p)
        scale = 1.0 / net.rtt
        assert dw / scale == pytest.approx(0.0, abs=1e-9)
        assert da / scale == pytest.approx(0.0, abs=1e-9)
        assert dq / scale == pytest.approx(0.0, abs=1e-6)

    def test_empty_queue_cannot_drain(self, model):
        assert rates(model, 0.001, 0.0, 0.0, 0.0)[2] == 0.0

    def test_full_buffer_cannot_grow(self, net):
        model = fluid_model(net, paper_dctcp(), buffer_packets=100.0)
        assert rates(model, 1000.0, 0.0, 100.0, 0.0)[2] == 0.0


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
    """Unmarked, dW/dt = 1/R(q): the RHS's own reading of the RTT."""

    def test_rtt_anchored_at_setpoint(self, net, model):
        def rtt(queue):
            return 1.0 / rates(model, 10.0, 0.5, queue, 0.0)[0]

        # R(setpoint) = R0 by construction (setpoint defaults to K = 40).
        assert rtt(40.0) == pytest.approx(net.rtt)
        assert rtt(80.0) > net.rtt
        assert rtt(0.0) < net.rtt

    def test_rtt_grows_linearly_with_queue(self, net, model):
        def rtt(queue):
            return 1.0 / rates(model, 10.0, 0.5, queue, 0.0)[0]

        assert rtt(50.0) - rtt(40.0) == pytest.approx(10.0 / net.capacity)
        assert rtt(90.0) - rtt(50.0) == pytest.approx(40.0 / net.capacity)

    def test_propagation_floor_for_deep_setpoints(self, net):
        # Setpoint 80 of an 83-packet pipe: R(0) = d = R0/4, not R0 - 80/C.
        model = FluidModel(
            net.capacity, [FlowClass(10, net.rtt)],
            SingleThresholdMarker.from_threshold(80.0), queue_setpoint=80.0,
        )
        assert 1.0 / rates(model, 10.0, 0.5, 0.0, 0.0)[0] == pytest.approx(
            net.rtt / 4
        )


class TestClamp:
    """The integrator projects every state, the initial one included."""

    def first(self, model, window, alpha, queue):
        trace = simulate(
            model, duration=1e-5,
            initial_state=FluidState((window,), (alpha,), queue),
        )
        return trace.window[0, 0], trace.alpha[0, 0], trace.queue[0]

    def test_window_floor_is_one_packet(self, model):
        assert self.first(model, -5.0, 0.5, 10.0)[0] == 1.0

    def test_alpha_clamped_to_unit_interval(self, model):
        assert self.first(model, 1.0, 1.5, 0.0)[1] == 1.0
        assert self.first(model, 1.0, -0.5, 0.0)[1] == 0.0

    def test_queue_nonnegative_and_bounded(self, net):
        model = fluid_model(net, paper_dctcp(), buffer_packets=100.0)
        assert self.first(model, 1.0, 0.0, -3.0)[2] == 0.0
        assert self.first(model, 1.0, 0.0, 150.0)[2] == 100.0

    def test_valid_state_unchanged(self, model):
        assert self.first(model, 5.0, 0.3, 25.0) == (5.0, 0.3, 25.0)


class TestConstruction:
    def test_initial_state_full_pipe(self, net, model):
        state = model.initial_state()
        assert state.window == (net.window_at_operating_point,)
        assert state.alpha == (0.0,)
        assert state.queue == 0.0

    @pytest.mark.parametrize(
        "classes",
        [
            [FlowClass(10, 1e-4)],
            [FlowClass(5, 1e-4), FlowClass(5, 2e-4)],
            [FlowClass(4, 0.7e-4), FlowClass(3, 1e-4), FlowClass(3, 2e-4)],
        ],
        ids=["one", "two", "three"],
    )
    def test_initial_state_splits_pipe_over_all_flows(self, classes):
        """W_i(0) = R_i C / sum N: every class starts at its own RTT's
        share, so the initial inflow sum_i N_i W_i / R_i is C at q = q0."""
        model = FluidModel(
            CAPACITY, classes, SingleThresholdMarker.from_threshold(40.0)
        )
        state = model.initial_state()
        total = sum(c.n_flows for c in classes)
        assert state.window == tuple(c.rtt * CAPACITY / total for c in classes)
        assert state.alpha == (0.0,) * len(classes)
        inflow = sum(
            model.class_rhs(i)(w, 0.0, 40.0, 0.0)[2]
            for i, w in enumerate(state.window)
        )
        assert inflow == pytest.approx(CAPACITY)

    def test_rejects_bad_buffer(self, net):
        with pytest.raises(ValueError):
            FluidModel(net.capacity, [FlowClass(10, net.rtt)],
                       SingleThresholdMarker.from_threshold(40.0),
                       buffer_packets=0.0)

    def test_rejects_bad_setpoint(self, net):
        with pytest.raises(ValueError):
            FluidModel(net.capacity, [FlowClass(10, net.rtt)],
                       SingleThresholdMarker.from_threshold(40.0),
                       queue_setpoint=-1.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda m: FluidModel(0.0, [FlowClass(1, 1e-4)], m),
            lambda m: FluidModel(CAPACITY, [], m),
            lambda m: FluidModel(CAPACITY, [FlowClass(1, 1e-4)], m, g=1.5),
            lambda m: FlowClass(0, 1e-4),
            lambda m: FlowClass(1, 0.0),
        ],
        ids=["capacity", "no-classes", "g", "n_flows", "rtt"],
    )
    def test_rejects_out_of_range(self, build):
        with pytest.raises(ValueError):
            build(SingleThresholdMarker.from_threshold(40.0))


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: fluid_model(paper_network(10), paper_dctcp(),
                             buffer_packets=math.nan), "buffer_packets"),
        (lambda: FlowClass(3, math.nan), "FlowClass.rtt"),
        (lambda: FlowClass(2.5, 1e-4), "FlowClass.n_flows"),
        (lambda: simulate(fluid_model(paper_network(10), paper_dctcp()),
                          duration=0.001, dt=math.nan), "dt"),
        (lambda: simulate(fluid_model(paper_network(10), paper_dctcp()),
                          duration=math.nan), "duration"),
        (lambda: simulate(fluid_model(paper_network(10), paper_dctcp()),
                          duration=math.inf), "duration"),
    ],
    ids=["buffer-nan", "rtt-nan", "n_flows-fractional", "dt-nan",
         "duration-nan", "duration-inf"],
)
def test_non_finite_input_rejected(build, field):
    """A NaN, infinite or fractional input is a ValueError naming its
    field, never a silently disabled check or an unrelated error."""
    with pytest.raises(ValueError, match=f"^{field} must"):
        build()


def test_throughput_reads_the_rates_rtt():
    """Throughput is the mean of N W / R(q) at the queue of each sample,
    not N mean(W) / R0."""
    net = paper_network(10)
    model = fluid_model(net, paper_dctcp())
    trace = simulate(model, duration=0.01).after(0.005)
    rtt = net.rtt + (trace.queue - 40.0) / net.capacity
    expected = np.mean(net.n_flows * trace.window[:, 0] / rtt)
    assert model.throughput(trace) == pytest.approx([expected], rel=1e-12)
