"""Unit and behaviour tests for the DDE integrator."""

import math

import numpy as np
import pytest

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
