"""Tests for the CUBIC baseline sender."""

import pytest

from repro.core.marking import NullMarker, SingleThresholdMarker
from repro.sim.queues import FifoQueue
from repro.sim.tcp.cubic import CubicSender
from repro.sim.tcp.flow import open_flow
from repro.sim.tcp.sender import DctcpSender, RenoSender
from repro.sim.topology import Network, dumbbell
from repro.sim.apps.bulk import launch_bulk_flows
from repro.sim.trace import QueueMonitor


def make_pair(capacity=10e6):
    net = Network()
    a, b = net.add_host("a"), net.add_host("b")
    net.connect(a, b, 1e9, 25e-6, FifoQueue(capacity), FifoQueue(10e6))
    net.finalize_routes()
    return net, a, b


class TestCubicBasics:
    def test_not_ecn_capable(self):
        net, a, b = make_pair()
        flow = open_flow(a, b, CubicSender, total_packets=10)
        assert not flow.sender.ecn_capable

    def test_transfer_completes(self):
        net, a, b = make_pair()
        flow = open_flow(a, b, CubicSender, total_packets=300)
        flow.start()
        net.sim.run(until=1.0)
        assert flow.completed
        assert flow.sender.timeouts == 0

    def test_slow_start_unchanged(self):
        net, a, b = make_pair()
        flow = open_flow(a, b, CubicSender, total_packets=5000,
                         initial_cwnd=2)
        flow.start()
        net.sim.run(until=4 * 115e-6)
        # Still doubling in slow start.
        assert flow.sender.cwnd > 8

    def test_loss_recovery_inherited(self):
        class DropOnce(FifoQueue):
            armed = True

            def enqueue(self, packet):
                if self.armed and not packet.is_ack and packet.seq == 50:
                    type(self).armed = True  # instance attr below
                    self.armed = False
                    self.stats.dropped += 1
                    return False
                return super().enqueue(packet)

        net = Network()
        a, b = net.add_host("a"), net.add_host("b")
        net.connect(a, b, 1e9, 25e-6, DropOnce(10e6), FifoQueue(10e6))
        net.finalize_routes()
        flow = open_flow(a, b, CubicSender, total_packets=200)
        flow.start()
        net.sim.run(until=1.0)
        assert flow.completed
        assert flow.sender.timeouts == 0  # fast retransmit handled it

    def test_beta_reduction_gentler_than_reno(self):
        """CUBIC cuts to 0.7x where Reno cuts to 0.5x."""
        net, a, b = make_pair()
        flow = open_flow(a, b, CubicSender, total_packets=10_000)
        sender = flow.sender
        sender.cwnd = 100.0
        sender.ssthresh = 50.0
        sender.next_seq = 120
        sender._high_water = 120
        sender.highest_ack = 100
        sender._enter_recovery()
        assert sender.cwnd == pytest.approx(70.0)


class TestCubicGrowth:
    def test_concave_plateau_near_w_max(self):
        """After a reduction the window approaches W_max slowly, then
        accelerates past it (the cubic signature)."""
        net, a, b = make_pair()
        flow = open_flow(a, b, CubicSender, total_packets=10_000_000)
        sender = flow.sender
        sender.ssthresh = 1.0  # force congestion avoidance
        sender._w_max = 60.0
        sender.cwnd = 42.0  # = beta * w_max
        flow.start()
        rtt = 115e-6
        samples = []

        def sample():
            samples.append(sender.cwnd)
            if net.sim.now < 0.2:
                net.sim.schedule(0.01, sample)

        net.sim.schedule(0.01, sample)
        net.sim.run(until=0.2)
        # Growth is monotone and eventually exceeds the old plateau.
        assert all(b >= a - 1e-6 for a, b in zip(samples, samples[1:]))
        assert samples[-1] > 60.0
        # Early growth (toward the plateau) is faster than mid (at it).
        early = samples[1] - samples[0]
        mid_idx = min(range(len(samples)),
                      key=lambda i: abs(samples[i] - 60.0))
        if 0 < mid_idx < len(samples) - 1:
            mid = samples[mid_idx + 1] - samples[mid_idx]
            assert mid <= early + 1e-6


class TestCubicVsOthers:
    def test_fills_deep_buffer_like_loss_based_tcp(self):
        nw = dumbbell(
            2, lambda: NullMarker(),
            bottleneck_buffer_bytes=512 * 1024,
        )
        launch_bulk_flows(nw, sender_cls=CubicSender)
        monitor = QueueMonitor(nw.sim, nw.bottleneck_queue, 20e-6)
        monitor.start()
        nw.sim.run(until=0.03)
        queue = monitor.series(after=0.012)
        # No ECN brake: the standing queue dwarfs DCTCP's K = 40.
        assert queue.mean() > 100

    def test_dctcp_keeps_far_smaller_queue_than_cubic(self):
        def mean_queue(sender_cls, marker):
            nw = dumbbell(2, marker,
                          bottleneck_buffer_bytes=512 * 1024)
            launch_bulk_flows(nw, sender_cls=sender_cls)
            mon = QueueMonitor(nw.sim, nw.bottleneck_queue, 20e-6)
            mon.start()
            nw.sim.run(until=0.02)
            return mon.series(after=0.008).mean()

        cubic_q = mean_queue(CubicSender, lambda: NullMarker())
        dctcp_q = mean_queue(
            DctcpSender, lambda: SingleThresholdMarker.from_threshold(40)
        )
        assert dctcp_q < cubic_q / 2
