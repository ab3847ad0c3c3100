"""Unit and behaviour tests for the DDE integrator."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.marking import DoubleThresholdMarker, SingleThresholdMarker
from repro.core.parameters import paper_dctcp, paper_dt_dctcp, paper_network
from repro.fluid.integrator import FluidTrace, simulate
from repro.fluid.model import FlowClass, FluidModel, FluidState, fluid_model

CAPACITY = 10e9 / (8 * 1500)

#: Flow-class mixes sharing the paper's 10 Gbps bottleneck.
MIXES = {
    "one-class": [FlowClass(10, 1e-4)],
    "2x-spread": [FlowClass(5, 1e-4), FlowClass(5, 3e-4)],
    "3-classes": [FlowClass(4, 0.7e-4), FlowClass(3, 1e-4), FlowClass(3, 2e-4)],
}


def dc_marker():
    return SingleThresholdMarker.from_threshold(40.0)


def dt_marker():
    return DoubleThresholdMarker.from_thresholds(30.0, 50.0)


@pytest.fixture(scope="module", params=sorted(MIXES))
def mix_trace(request):
    """0.02 s of DCTCP on each class mix, with its model."""
    model = FluidModel(CAPACITY, MIXES[request.param], dc_marker())
    return model, simulate(model, duration=0.02)


@pytest.fixture
def net():
    return paper_network(10)


class TestSimulateBasics:
    def test_trace_lengths_consistent(self, net):
        trace = simulate(fluid_model(net, paper_dctcp()), duration=0.002)
        n = len(trace.time)
        assert n == len(trace.window) == len(trace.alpha)
        assert n == len(trace.queue) == len(trace.marking)

    def test_time_axis_uniform_from_zero(self, net):
        trace = simulate(fluid_model(net, paper_dctcp()), duration=0.002)
        assert trace.time[0] == 0.0
        steps = np.diff(trace.time)
        assert np.allclose(steps, steps[0])

    def test_record_every_thins_output(self, net):
        full = simulate(fluid_model(net, paper_dctcp()), duration=0.002)
        thin = simulate(
            fluid_model(net, paper_dctcp()), duration=0.002, record_every=4
        )
        assert len(thin.time) == pytest.approx(len(full.time) / 4, abs=2)

    def test_custom_initial_state(self, net):
        start = FluidState(window=(5.0,), alpha=(0.5,), queue=100.0)
        trace = simulate(
            fluid_model(net, paper_dctcp()), duration=0.001, initial_state=start
        )
        assert trace.queue[0] == 100.0
        assert trace.window[0].tolist() == [5.0]

    def test_window_and_alpha_have_one_column_per_class(self, mix_trace):
        model, trace = mix_trace
        shape = (len(trace.time), len(model.classes))
        assert trace.window.shape == trace.alpha.shape == shape

    def test_rejects_initial_state_of_wrong_width(self, net):
        with pytest.raises(ValueError, match="initial_state"):
            simulate(
                fluid_model(net, paper_dctcp()), duration=0.001,
                initial_state=FluidState((5.0, 5.0), (0.0, 0.0), 0.0),
            )

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_bad_duration(self, net, bad):
        with pytest.raises(ValueError):
            simulate(fluid_model(net, paper_dctcp()), duration=bad)

    def test_rejects_bad_dt(self, net):
        with pytest.raises(ValueError):
            simulate(
                fluid_model(net, paper_dctcp()), duration=0.01, dt=net.rtt * 2
            )
        with pytest.raises(ValueError):
            simulate(fluid_model(net, paper_dctcp()), duration=0.01, dt=0.0)

    def test_rejects_bad_span_on_every_class_mix(self, mix_trace):
        model, _ = mix_trace
        with pytest.raises(ValueError, match="duration"):
            simulate(model, duration=0.0)
        with pytest.raises(ValueError, match="dt"):
            simulate(model, duration=0.01, dt=1.0)

    def test_rejects_bad_record_every(self, net):
        with pytest.raises(ValueError):
            simulate(
                fluid_model(net, paper_dctcp()), duration=0.001, record_every=0
            )

    def test_rejects_fractional_record_every(self, net):
        """``step % 2.5 == 0`` would keep every fifth step, not every
        2.5th: a fraction is refused rather than silently reinterpreted."""
        with pytest.raises(ValueError, match="record_every"):
            simulate(
                fluid_model(net, paper_dctcp()), duration=0.001,
                record_every=2.5,
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["window", "alpha", "queue"])
    def test_rejects_non_finite_initial_state(self, net, field, bad):
        """A non-finite start would turn the whole trace into NaN."""
        start = dict(window=(5.0,), alpha=(0.5,), queue=10.0)
        start[field] = bad if field == "queue" else (bad,)
        with pytest.raises(ValueError, match=f"initial_state.{field}"):
            simulate(
                fluid_model(net, paper_dctcp()), duration=0.001,
                initial_state=FluidState(**start),
            )


class TestPhysicalInvariants:
    def test_every_class_mix_queue_nonnegative(self, mix_trace):
        _, trace = mix_trace
        assert np.all(trace.queue >= 0.0)

    def test_every_class_mix_alphas_in_unit_interval(self, mix_trace):
        _, trace = mix_trace
        assert np.all((trace.alpha >= 0.0) & (trace.alpha <= 1.0))

    def test_every_class_mix_windows_at_least_one(self, mix_trace):
        _, trace = mix_trace
        assert np.all(trace.window >= 1.0)

    def test_queue_never_negative(self, net):
        trace = simulate(fluid_model(net, paper_dctcp()), duration=0.01)
        assert np.all(trace.queue >= 0.0)

    def test_alpha_in_unit_interval(self, net):
        trace = simulate(fluid_model(net, paper_dctcp()), duration=0.01)
        assert np.all(trace.alpha >= 0.0)
        assert np.all(trace.alpha <= 1.0)

    def test_window_at_least_one_packet(self, net):
        trace = simulate(fluid_model(net, paper_dctcp()), duration=0.01)
        assert np.all(trace.window >= 1.0)

    def test_marking_is_binary(self, net):
        trace = simulate(fluid_model(net, paper_dctcp()), duration=0.01)
        assert set(np.unique(trace.marking)) <= {0.0, 1.0}

    def test_buffer_limit_respected(self, net):
        model = fluid_model(net, paper_dctcp(), buffer_packets=60.0)
        trace = simulate(model, duration=0.01)
        assert trace.queue.max() <= 60.0 + 1e-9


class TestSteadyStateBehaviour:
    def test_dctcp_queue_oscillates_around_threshold(self, net):
        trace = simulate(fluid_model(net, paper_dctcp()), duration=0.04).after(0.02)
        assert 25.0 < trace.mean_queue < 60.0
        # It is a genuine oscillation, not a fixed point.
        assert trace.std_queue > 1.0

    def test_dt_dctcp_std_smaller_than_dctcp(self, net):
        """The paper's core fluid-level claim at N = 10."""
        dc = simulate(fluid_model(net, paper_dctcp()), duration=0.04).after(0.02)
        dt = simulate(fluid_model(net, paper_dt_dctcp()), duration=0.04).after(0.02)
        assert dt.std_queue < dc.std_queue

    def test_alpha_matches_operating_point(self, net):
        # alpha0 = sqrt(2/W0) ~ 0.49 at N = 10 on the paper's pipe.
        trace = simulate(fluid_model(net, paper_dctcp()), duration=0.04).after(0.02)
        expected = math.sqrt(2.0 / net.window_at_operating_point)
        assert trace.mean_alpha == pytest.approx(expected, rel=0.25)

    def test_more_flows_bigger_oscillation(self):
        small = simulate(
            fluid_model(paper_network(10), paper_dctcp()), duration=0.04
        ).after(0.02)
        large = simulate(
            fluid_model(paper_network(30), paper_dctcp()), duration=0.04
        ).after(0.02)
        assert large.std_queue > small.std_queue

    def test_large_n_queue_self_stabilises(self):
        """For N > R0*C/2 even full marking (W -> 2) overfills a fixed
        pipe; the queue-dependent RTT stretches until N such windows
        fit, so the queue settles instead of blowing up."""
        net = paper_network(80)
        trace = simulate(fluid_model(net, paper_dctcp()), duration=0.02)
        assert trace.queue[-1] < 300.0

    def test_integrator_convergence_under_dt_refinement(self, net):
        coarse = simulate(
            fluid_model(net, paper_dctcp()), duration=0.02, dt=net.rtt / 20
        ).after(0.01)
        fine = simulate(
            fluid_model(net, paper_dctcp()), duration=0.02, dt=net.rtt / 80
        ).after(0.01)
        assert coarse.mean_queue == pytest.approx(fine.mean_queue, rel=0.15)


class TestFlowClasses:
    def test_class_split_is_invisible(self):
        """One class of 10 flows and two identical classes of 5 are the
        same system: the queue trajectories agree to 1e-9 relative."""
        whole = simulate(
            FluidModel(CAPACITY, [FlowClass(10, 1e-4)], dc_marker()),
            duration=0.01,
        )
        split = simulate(
            FluidModel(
                CAPACITY, [FlowClass(5, 1e-4), FlowClass(5, 1e-4)], dc_marker()
            ),
            duration=0.01,
        )
        assert split.window[:, 0].tolist() == split.window[:, 1].tolist()
        assert np.allclose(split.queue, whole.queue, rtol=1e-9, atol=0.0)

    def test_throughput_conservation(self, mix_trace):
        """In steady state the classes together fill the pipe."""
        model, trace = mix_trace
        total = model.throughput(trace.after(0.01)).sum()
        assert total == pytest.approx(CAPACITY, rel=0.02)

    def test_shorter_rtt_class_gets_more_throughput_per_flow(self):
        """The familiar RTT unfairness of window-based control."""
        classes = MIXES["2x-spread"]
        model = FluidModel(CAPACITY, classes, dc_marker())
        trace = simulate(model, duration=0.02).after(0.01)
        per_flow = model.throughput(trace) / [c.n_flows for c in classes]
        assert per_flow[0] > per_flow[1]

    def test_dt_steadier_than_dc_under_rtt_spread(self):
        """DT-DCTCP's advantage survives heterogeneous RTTs."""
        classes = [FlowClass(5, 1e-4), FlowClass(5, 2e-4)]
        dc = simulate(
            FluidModel(CAPACITY, classes, dc_marker()), duration=0.04
        ).after(0.02)
        dt = simulate(
            FluidModel(CAPACITY, classes, dt_marker()), duration=0.04
        ).after(0.02)
        assert dt.std_queue < dc.std_queue

    def test_regulates_near_threshold(self, mix_trace):
        """Every mix holds its queue around K = 40."""
        _, trace = mix_trace
        assert 20 < trace.after(0.01).mean_queue < 70


def rk4_reference(model, state, dt, n_steps):
    """``n_steps`` of classical RK4 built from the model's one-call
    definitions - :meth:`FluidModel.class_rhs`, :meth:`~FluidModel.queue_rate`
    and :meth:`~FluidModel.marking` - with the projections written as
    ``max``/``min``.  Returns one ``(t, windows, alphas, q, p)`` row per
    step, the start included.

    The marking history is every step's sample, read by a linear scan:
    ``p(s) = 0`` for ``s <= 0``, else the sample at the last ``k * dt``
    at or before ``s``.
    """
    m = len(model.classes)
    rhs = [model.class_rhs(i) for i in range(m)]
    rtts = [c.rtt for c in model.classes]
    buffer = math.inf if model.buffer_packets is None else model.buffer_packets
    model.marker.reset()
    w = [max(x, 1.0) for x in state.window]
    a = [min(max(x, 0.0), 1.0) for x in state.alpha]
    q = min(max(state.queue, 0.0), buffer)
    marks = [model.marking(q)]

    def p(s):
        if s <= 0.0:
            return 0.0
        k = 0
        while k + 1 < len(marks) and (k + 1) * dt <= s:
            k += 1
        return marks[k]

    def slopes(ws, alphas, qs, ps):
        dw, da, inflow = [], [], 0.0
        for i in range(m):
            w_rate, a_rate, f = rhs[i](ws[i], alphas[i], qs, ps[i])
            dw.append(w_rate)
            da.append(a_rate)
            inflow += f
        return dw, da, model.queue_rate(inflow, qs)

    def ahead(x, h, k):
        return [x[i] + h * k[i] for i in range(m)]

    def rk4(x, k1, k2, k3, k4):
        return [
            x[i] + dt * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]) / 6.0
            for i in range(m)
        ]

    rows = [(0.0, list(w), list(a), q, marks[0])]
    half = 0.5 * dt
    t = 0.0
    for step in range(1, n_steps + 1):
        p1 = [p(t - r) for r in rtts]
        p2 = [p(t + half - r) for r in rtts]
        p4 = [p(t + dt - r) for r in rtts]
        w1, a1, q1 = slopes(w, a, q, p1)
        qs = max(0.0, q + half * q1)
        w2, a2, q2 = slopes(ahead(w, half, w1), ahead(a, half, a1), qs, p2)
        qs = max(0.0, q + half * q2)
        w3, a3, q3 = slopes(ahead(w, half, w2), ahead(a, half, a2), qs, p2)
        qs = max(0.0, q + dt * q3)
        w4, a4, q4 = slopes(ahead(w, dt, w3), ahead(a, dt, a3), qs, p4)
        w = [max(x, 1.0) for x in rk4(w, w1, w2, w3, w4)]
        a = [min(max(x, 0.0), 1.0) for x in rk4(a, a1, a2, a3, a4)]
        q = min(max(q + dt * (q1 + 2 * q2 + 2 * q3 + q4) / 6.0, 0.0), buffer)
        t = step * dt
        marks.append(model.marking(q))
        rows.append((t, list(w), list(a), q, marks[-1]))
    return rows


@st.composite
def fluid_starts(draw):
    """``(model, initial state, dt, steps)`` over 1-3 flow classes and
    both schemes, in one of three regimes: a random finite start (out
    of range included, with or without a buffer), an empty or
    nearly empty queue the flows drain (it must hold at zero), or a
    full or nearly full finite buffer the flows overfill (it must hold
    at the buffer).

    At most 8 flows per class keep one-packet windows below the
    bottleneck rate; windows of 600 or more exceed it.
    """
    m = draw(st.integers(1, 3))
    classes = [
        FlowClass(draw(st.integers(1, 8)), draw(st.floats(5e-5, 3e-4)))
        for _ in range(m)
    ]
    marker = draw(st.sampled_from([dc_marker, dt_marker]))()
    regime = draw(st.sampled_from(["random", "draining", "filling"]))
    alphas = tuple(draw(st.floats(-0.5, 1.5)) for _ in range(m))
    if regime == "random":
        buffer = draw(st.one_of(st.none(), st.floats(20.0, 200.0)))
        windows = tuple(draw(st.floats(-5.0, 200.0)) for _ in range(m))
        queue = draw(st.floats(-20.0, 300.0))
    elif regime == "draining":
        buffer = None
        windows = (1.0,) * m
        queue = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
    else:
        buffer = draw(st.floats(20.0, 200.0))
        windows = tuple(draw(st.floats(600.0, 2000.0)) for _ in range(m))
        queue = draw(st.floats(buffer - 10.0, buffer))
    g = draw(st.floats(0.01, 0.99))
    model = FluidModel(CAPACITY, classes, marker, g=g, buffer_packets=buffer)
    dt = min(c.rtt for c in classes) / draw(st.integers(1, 8))
    steps = draw(st.integers(1, 20))
    return model, FluidState(windows, alphas, queue), dt, steps


def overshoot(n_flows, rtt, g, window, alpha, queue, steps):
    """One DCTCP class stepped at ``dt = R`` with a large ``g``: RK4
    overshoots, and the step's projections do work."""
    model = FluidModel(CAPACITY, [FlowClass(n_flows, rtt)], dc_marker(), g=g)
    return model, FluidState((window,), (alpha,), queue), rtt, steps


class TestInlineStages:
    @given(start=fluid_starts())
    # Random draws seldom push a step outside the physical region, so
    # these three (found by search) pin the projections: alpha above
    # one, alpha below zero, and the window below one packet.
    @example(start=overshoot(3, 5.93e-5, 0.894, 0.97, -0.125, 46.1, 4))
    @example(start=overshoot(2, 6.36e-5, 0.761, 4.88, 0.657, 69.7, 15))
    @example(start=overshoot(1, 5.82e-5, 0.985, 3.36, 1.37, 43.3, 13))
    @settings(max_examples=80, deadline=None)
    def test_simulate_equals_rk4_of_the_model_definitions(self, start):
        """The step's inline stages are ``class_rhs``, ``queue_rate`` and
        ``marking`` written out: every sample equals, bit for bit, the
        RK4 step that calls them."""
        model, state, dt, steps = start
        trace = simulate(model, steps * dt, dt=dt, initial_state=state)
        want = rk4_reference(model, state, dt, steps)
        got = [
            (t, list(w), list(a), q, p)
            for t, w, a, q, p in zip(
                trace.time.tolist(), trace.window.tolist(),
                trace.alpha.tolist(), trace.queue.tolist(),
                trace.marking.tolist(),
            )
        ]
        assert len(got) == len(want) == steps + 1

        def hexed(row):
            t, w, a, q, p = row
            return [x.hex() for x in (t, *w, *a, q, p)]

        assert [hexed(row) for row in got] == [hexed(row) for row in want]


class TestFluidTrace:
    def make_trace(self, values, dt=1e-5):
        n = len(values)
        t = np.arange(n) * dt
        z = np.zeros(n)
        return FluidTrace(
            time=t, window=z, alpha=z, queue=np.asarray(values, float), marking=z
        )

    def test_after_drops_transient(self):
        trace = self.make_trace(np.arange(100.0))
        late = trace.after(50e-5)
        assert late.time[0] >= 50e-5
        assert len(late.time) == 50

    def test_statistics(self):
        trace = self.make_trace([10.0, 20.0, 30.0])
        assert trace.mean_queue == pytest.approx(20.0)
        assert trace.std_queue == pytest.approx(np.std([10, 20, 30]))

    def test_amplitude_of_known_sine(self):
        t = np.arange(4096) * 1e-5
        q = 40.0 + 15.0 * np.sin(2 * np.pi * 500 * t)
        trace = self.make_trace(q)
        assert trace.queue_amplitude == pytest.approx(15.0, rel=0.05)

    def test_dominant_frequency_of_known_sine(self):
        t = np.arange(8192) * 1e-5
        freq_hz = 800.0
        q = 40.0 + 5.0 * np.sin(2 * np.pi * freq_hz * t)
        trace = self.make_trace(q)
        assert trace.dominant_frequency() == pytest.approx(
            2 * np.pi * freq_hz, rel=0.02
        )

    def test_dominant_frequency_needs_samples(self):
        with pytest.raises(ValueError):
            self.make_trace([1.0, 2.0]).dominant_frequency()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FluidTrace(
                time=np.zeros(3),
                window=np.zeros(3),
                alpha=np.zeros(2),
                queue=np.zeros(3),
                marking=np.zeros(3),
            )
