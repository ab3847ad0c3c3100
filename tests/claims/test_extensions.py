"""Claims beyond the paper's figures (EXPERIMENTS.md, "Beyond the paper").

Each test is its claim's only home.  Where ``src/`` has a rig the test
calls it — the buildup, buffer-pressure and bias-corrected-DF claims
assert on the results of the ``figure buildup`` / ``buffer`` /
``df-bias`` stages themselves, from the run the ``quick_stage`` fixture
shares with the snapshot test, and ``queue_sweep.run_point`` takes
``quick_scale()``, the scale ``figure all --quick`` prints — and where
it has none the hand-built network
stays here as test code: this is the only end-to-end driver of
:class:`~repro.core.marking.REDMarker`.
"""

import math

import numpy as np
import pytest

from repro.core.marking import (
    DoubleThresholdMarker,
    NullMarker,
    SingleThresholdMarker,
)
from repro.core.parameters import (
    DoubleThresholdParams,
    SingleThresholdParams,
    paper_network,
)
from repro.core.stability import calibrate_gain_scale, stability_margin
from repro.core.transfer_function import open_loop
from repro.experiments import quick_scale
from repro.experiments.fig14_incast import (
    TESTBED_INITIAL_CWND,
    TESTBED_START_JITTER,
)
from repro.experiments.protocols import (
    ProtocolConfig,
    dctcp_sim,
    dctcp_testbed,
    dt_dctcp_sim,
    ecn_red_baseline,
)
from repro.experiments.queue_sweep import run_point
from repro.fluid.integrator import simulate
from repro.fluid.model import FlowClass, FluidModel
from repro.sim.apps.bulk import launch_bulk_flows
from repro.sim.apps.incast import FanInApp
from repro.sim.apps.partition_aggregate import partition_aggregate_app
from repro.sim.tcp.cubic import CubicSender
from repro.sim.tcp.sender import DctcpSender, RenoSender
from repro.sim.topology import dumbbell, paper_testbed
from repro.sim.trace import QueueMonitor

KB = 1024


# -- microbenchmarks of Section II-A ------------------------------------


def test_queue_buildup_short_flow_latency(quick_stage):
    """ECN marking protects latency-sensitive short flows; DT-DCTCP's
    steadier (and slightly lower) queue gives the best tail."""
    by_name = {r.protocol: r for r in quick_stage("buildup")[1]}
    droptail = by_name["DropTail-Reno"]
    dctcp = by_name["DCTCP"]
    dt = by_name["DT-DCTCP"]
    # ECN mechanisms keep short-flow latency well below DropTail's...
    assert dctcp.mean_fct < droptail.mean_fct / 1.5
    assert dt.mean_fct < droptail.mean_fct / 1.5
    # ... because their standing queues are an order of magnitude lower.
    assert dctcp.mean_queue < droptail.mean_queue / 5
    # DT-DCTCP's queue is the lowest of the three.
    assert dt.mean_queue <= dctcp.mean_queue


def test_buffer_pressure(quick_stage):
    """Long flows on *other* ports of a shared-memory switch steal the
    pool an incast port needs: DropTail background collapses the incast,
    marking background leaves it at line rate."""
    by_label = {r.background: r for r in quick_stage("buffer")[1]}
    alone = by_label["none (DCTCP incast alone)"]
    droptail = by_label["Reno long flows, DropTail pool"]
    # Without pressure the incast runs near line rate.
    assert alone.incast_goodput_bps > 0.9e9
    # DropTail background parks most of the pool on port B and crushes it.
    assert droptail.background_queue_peak_bytes > 0.5 * 256 * KB
    assert droptail.incast_goodput_bps < alone.incast_goodput_bps / 2
    assert droptail.pool_rejections > 0
    # Marking background keeps the pool free: incast unaffected.
    for marked in (by_label["DCTCP long flows"], by_label["DT-DCTCP long flows"]):
        assert marked.incast_goodput_bps > 0.9e9
        assert marked.incast_timeouts == 0
        assert marked.background_queue_peak_bytes < 0.5 * 256 * KB


# -- theory against packets ---------------------------------------------


def test_bias_corrected_df_predicts_simulation(quick_stage):
    """Parameter-free (no calibrated gain anywhere): centring the DF's
    test signal at the threshold predicts a limit cycle at every N with
    amplitude ``2 K |K0 G(j w180)| / pi`` - existence, scale and trend
    against the packet-level measurement at N = 10, 20, 30, 40.
    (``tests/core/test_df_bias.py`` holds the theory side alone.)"""
    points = quick_stage("df-bias")[1]
    assert [p.n_flows for p in points] == [10, 20, 30, 40]
    for p in points:
        # Existence and scale: measured within ~2x of the prediction.
        assert 0.5 < p.amplitude_ratio < 2.5
        # Frequencies in the same band.
        assert 0.5 < p.measured_frequency / p.predicted_frequency < 2.0
        # DT-DCTCP: either no predicted cycle (stable) or a smaller one,
        # and the measured DT oscillation never exceeds DCTCP's.
        if p.predicted_dt_amplitude is not None:
            assert p.predicted_dt_amplitude <= p.predicted_amplitude
        assert p.measured_dt_amplitude <= p.measured_amplitude * 1.05
    # Both series grow through the ECN-controlled regime.
    predicted = [p.predicted_amplitude for p in points]
    assert predicted == sorted(predicted)
    assert points[-1].measured_amplitude > points[0].measured_amplitude


# -- ablations of the design choices DESIGN.md calls out ----------------


def test_ablation_threshold_gap_margin():
    """How wide should (K1, K2) straddle K?  The paper picks 30/50
    without justification; the stability margin grows monotonically
    with the hysteresis gap."""
    net = paper_network(55)
    scale = calibrate_gain_scale(
        paper_network(10), SingleThresholdParams(40.0), onset_flows=60
    )
    margins = [
        stability_margin(
            net,
            DoubleThresholdParams(k1=40.0 - gap / 2, k2=40.0 + gap / 2),
            loop_gain_scale=scale,
        )
        for gap in (0.0, 5.0, 10.0, 20.0, 30.0)
    ]
    assert margins == sorted(margins)
    # Degenerate gap 0 equals DCTCP: margin ~ 0 at the calibrated scale.
    assert margins[0] == pytest.approx(0.0, abs=0.05)
    assert margins[-1] > 0.2


def test_ablation_g_sweep_crossover():
    """The alpha gain trades estimation speed against noise: a larger g
    drags the plant's phase crossover lower."""
    w = np.geomspace(1e3, 1e6, 20000)
    crossovers = []
    for g in (1 / 32, 1 / 16, 1 / 4):
        phase = np.unwrap(np.angle(open_loop(w, paper_network(40, g=g)) / 40.0))
        crossovers.append(float(w[int(np.argmin(np.abs(phase + math.pi)))]))
    assert crossovers == sorted(crossovers, reverse=True)


def test_ablation_mechanism_bakeoff():
    """DropTail/Reno, DropTail/CUBIC, RED/ECN-Reno, DCTCP and DT-DCTCP
    on the same pipe at N = 10."""
    configs = [
        ProtocolConfig("DropTail-Reno", lambda: NullMarker(), RenoSender),
        ProtocolConfig("DropTail-CUBIC", lambda: NullMarker(), CubicSender),
        ecn_red_baseline(),
        dctcp_sim(),
        dt_dctcp_sim(),
    ]
    results = {c.name: run_point(c, 10, quick_scale()) for c in configs}
    # ECN-based mechanisms keep the queue near their thresholds...
    assert results["DCTCP"].mean_queue < 70
    assert results["DT-DCTCP"].mean_queue < 70
    # ...and full throughput.
    assert results["DCTCP"].goodput_bps > 9e9
    assert results["DT-DCTCP"].goodput_bps > 9e9
    # Loss-based stacks drop packets on this pipe (synchronized
    # slow-start overshoot; no ECN brake).
    assert results["DropTail-Reno"].drops > 0
    assert results["DropTail-CUBIC"].drops > 0
    assert results["DropTail-Reno"].goodput_bps < results["DCTCP"].goodput_bps
    # DT-DCTCP's oscillation is the smallest of the ECN mechanisms.
    assert results["DT-DCTCP"].std_queue <= results["DCTCP"].std_queue * 1.05
    assert results["DT-DCTCP"].std_queue <= results["RED-ECN"].std_queue


def test_ablation_deadband_must_stay_below_gap():
    """The packet-level hysteresis needs a direction deadband below the
    K2 - K1 gap: one comparable to it degenerates DT-DCTCP into an
    effective single threshold and its std advantage disappears (the
    testbed lesson baked into ``repro.experiments.protocols``)."""
    std = {}
    for deadband in (0.5, 2.0, 25.0):
        config = ProtocolConfig(
            name=f"DT-db{deadband}",
            marker_factory=lambda d=deadband: (
                DoubleThresholdMarker.from_thresholds(30, 50, deadband=d)
            ),
            sender_cls=DctcpSender,
        )
        std[deadband] = run_point(config, 10, quick_scale()).std_queue
    # A deadband beyond the gap behaves no better than the moderate one.
    assert std[25.0] >= std[2.0] * 0.8


# -- sender knobs -------------------------------------------------------


def test_extension_min_rto_sweep():
    """The incast blow-up magnitude is exactly the minimum RTO: shrinking
    it (the classic mitigation) shrinks the completion-time jump."""
    mean_completion = {}
    for min_rto in (0.01, 0.05, 0.2):
        testbed = paper_testbed(dctcp_testbed().marker_factory)
        app = partition_aggregate_app(
            testbed.aggregator,
            testbed.workers,
            n_flows=40,  # solidly past the collapse point
            n_queries=5,
            initial_cwnd=2,
            start_jitter=50e-6,
            min_rto=min_rto,
        )
        app.start()
        testbed.sim.run(until=20.0)
        times = app.completion_times()
        mean_completion[min_rto] = sum(times) / len(times)
    # Completion time ordered by (and dominated by) the min-RTO.
    assert mean_completion[0.01] < mean_completion[0.05] < mean_completion[0.2]
    assert mean_completion[0.2] == pytest.approx(0.2 + 0.0085, rel=0.35)


# -- incast: mitigations ------------------------------------------------


def incast_run(protocol, n_flows, **flow_kwargs):
    """``(goodput_bps, timeouts)`` of five 64 KB fan-in queries on the
    testbed."""
    queries = 5
    testbed = paper_testbed(protocol.marker_factory)
    app = FanInApp(
        testbed.aggregator,
        testbed.workers,
        n_flows=n_flows,
        bytes_per_flow=64 * KB,
        n_queries=queries,
        sender_cls=protocol.sender_cls,
        initial_cwnd=TESTBED_INITIAL_CWND,
        start_jitter=TESTBED_START_JITTER,
        **flow_kwargs,
    )
    app.start()
    testbed.sim.run(until=60.0 * queries)
    return app.overall_goodput_bps(), sum(r.timeouts for r in app.results)


def test_incast_mitigations():
    """Past the collapse point (38 synchronized flows), the classic
    min-RTO knob against stock DCTCP: a small min-RTO pays 10 ms
    instead of 200 ms for each loss."""
    dc = dctcp_testbed()
    stock, _ = incast_run(dc, 38)
    assert stock < 0.5e9  # collapsed without help
    # A small min-RTO doesn't avoid losses but recovers 20x faster.
    fast_rto, _ = incast_run(dc, 38, min_rto=0.01)
    assert fast_rto > stock * 5


# -- RTT heterogeneity ---------------------------------------------------


def test_multiclass_fluid_heterogeneity():
    """The fluid model generalises Eq. 1-3 to several RTT groups sharing
    the bottleneck; the paper's stability ordering survives the spread
    at every mix, with the pipe kept full."""
    capacity = 10e9 / (8 * 1500)
    mixes = {
        "homogeneous": [FlowClass(10, 1e-4)],
        "2x spread": [FlowClass(5, 1e-4), FlowClass(5, 2e-4)],
        "4x spread": [FlowClass(5, 0.5e-4), FlowClass(5, 2e-4)],
        "3 classes": [
            FlowClass(4, 0.7e-4), FlowClass(3, 1e-4), FlowClass(3, 2e-4)
        ],
    }
    markers = {
        "dc": lambda: SingleThresholdMarker.from_threshold(40.0),
        "dt": lambda: DoubleThresholdMarker.from_thresholds(30.0, 50.0),
    }
    for label, classes in mixes.items():
        std = {}
        for name, marker in markers.items():
            model = FluidModel(capacity, classes, marker())
            trace = simulate(model, duration=0.02).after(0.008)
            std[name] = trace.std_queue
            # The pipe is kept full by both.
            throughput = model.throughput(trace).sum()
            assert throughput == pytest.approx(capacity, rel=0.02), label
        # DT-DCTCP steadier at every RTT mix.
        assert std["dt"] < std["dc"], label


def test_desynchronized_starts():
    """The paper's analysis assumes one common RTT and a synchronized
    start.  Staggered flow starts desynchronise the window sawteeth the
    way heterogeneous RTTs do; DT-DCTCP's std advantage must not depend
    on the synchronized start the other experiments use."""
    scale = quick_scale()

    def measure(protocol, jitter):
        network = dumbbell(10, protocol.marker_factory)
        launch_bulk_flows(
            network,
            sender_cls=protocol.sender_cls,
            start_jitter=jitter,
            jitter_seed=11,
        )
        monitor = QueueMonitor(
            network.sim, network.bottleneck_queue, scale.sample_interval
        )
        monitor.start()
        network.sim.run(until=scale.sim_duration)
        return monitor.steady_state(scale.warmup)

    for jitter in (0.0, 500e-6, 2e-3):
        dc_mean, dc_std = measure(dctcp_sim(), jitter)
        dt_mean, dt_std = measure(dt_dctcp_sim(), jitter)
        # Both stay regulated near the setpoint...
        assert 20 < dc_mean < 70
        assert 20 < dt_mean < 70
        # ... and DT-DCTCP stays at least as steady at every jitter.
        assert dt_std <= dc_std * 1.1
