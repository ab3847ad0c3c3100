"""Focused sender-behaviour tests not covered elsewhere."""

import pytest

from repro.core.marking import SingleThresholdMarker
from repro.sim.packet import Packet
from repro.sim.queues import FifoQueue
from repro.sim.tcp.flow import open_flow
from repro.sim.tcp.sender import DctcpSender, EcnRenoSender
from repro.sim.topology import Network


def make_pair(forward_queue=None):
    net = Network()
    a, b = net.add_host("a"), net.add_host("b")
    fq = forward_queue or FifoQueue(10e6)
    net.connect(a, b, 1e9, 25e-6, fq, FifoQueue(10e6))
    net.finalize_routes()
    return net, a, b


def synthetic_ack(flow, ack_seq, ece=False):
    ack = Packet(
        flow_id=flow.flow_id,
        src=flow.receiver.host.node_id,
        dst=flow.sender.host.node_id,
        seq=-1,
        size_bytes=40,
        is_ack=True,
        ack_seq=ack_seq,
    )
    ack.ece = ece
    return ack


class TestEcnRenoOncePerWindow:
    def test_single_cut_per_window(self):
        net, a, b = make_pair()
        flow = open_flow(a, b, EcnRenoSender, total_packets=1000)
        sender = flow.sender
        sender.cwnd = 64.0
        sender.ssthresh = 32.0
        sender.next_seq = 40
        sender._high_water = 40
        # Three consecutive ECE acks within one window: one halving only.
        for seq in (1, 2, 3):
            sender.on_packet(synthetic_ack(flow, seq, ece=True))
        assert sender.cwnd == pytest.approx(32.0, abs=2.0)

    def test_cut_resumes_next_window(self):
        net, a, b = make_pair()
        flow = open_flow(a, b, EcnRenoSender, total_packets=10_000)
        sender = flow.sender
        sender.cwnd = 64.0
        sender.ssthresh = 32.0
        sender.next_seq = 10
        sender._high_water = 10
        sender.on_packet(synthetic_ack(flow, 1, ece=True))
        after_first = sender.cwnd
        # Advance past the cut window (next_seq grew on the send path).
        sender.on_packet(synthetic_ack(flow, sender.next_seq, ece=True))
        assert sender.cwnd < after_first


class TestDctcpAlphaDynamics:
    def test_alpha_decays_without_marks(self):
        net, a, b = make_pair()
        flow = open_flow(a, b, DctcpSender, total_packets=4000)
        flow.start()
        net.sim.run(until=0.05)
        # Clean path: alpha decays from its pessimistic start of 1 by
        # (1-g) per window; windows get long as cwnd grows, so the decay
        # is gradual but strictly downward.
        assert flow.sender.alpha < 0.7

    def test_alpha_geometric_decay_rate(self):
        net, a, b = make_pair()
        flow = open_flow(a, b, DctcpSender, total_packets=100)
        sender = flow.sender
        sender.alpha = 1.0
        sender.next_seq = 10
        sender._high_water = 10
        # Each clean window multiplies alpha by (1 - g).
        for i in range(1, 5):
            sender._alpha_seq = sender.highest_ack  # force window boundary
            sender.on_packet(synthetic_ack(flow, i))
        assert sender.alpha == pytest.approx((1 - sender.g) ** 4, rel=0.01)

    def test_contended_low_threshold_keeps_alpha_high(self):
        """With several flows sharing a near-zero threshold, the queue
        never empties, every window carries marks, and alpha stays high.
        (A *lone* ACK-clocked flow drains its queue, loses its marks and
        decays alpha to ~0 - covered implicitly by the decay test.)"""
        from repro.core.marking import SingleThresholdMarker as STM
        from repro.sim.apps.bulk import launch_bulk_flows
        from repro.sim.topology import dumbbell

        nw = dumbbell(4, lambda: STM.from_threshold(0.5),
                      bandwidth_bps=1e9)
        flows = launch_bulk_flows(nw)
        for flow in flows:  # start optimistic: the marks must raise it
            flow.sender.alpha = 0.0
        nw.sim.run(until=0.05)
        alphas = [f.sender.alpha for f in flows]
        assert min(alphas) > 0.5


class TestWindowAccounting:
    def test_cwnd_floor_is_one(self):
        net, a, b = make_pair()
        flow = open_flow(a, b, DctcpSender, total_packets=100)
        sender = flow.sender
        sender.alpha = 1.0
        sender.cwnd = 1.0
        sender.next_seq = 5
        sender._high_water = 5
        sender.on_packet(synthetic_ack(flow, 1, ece=True))
        assert sender.cwnd >= 1.0

    def test_fractional_cwnd_gates_sends(self):
        net, a, b = make_pair()
        flow = open_flow(a, b, DctcpSender, total_packets=100,
                         initial_cwnd=1.9)
        flow.start()
        net.sim.run(until=30e-6)  # before the first ACK returns
        assert flow.sender.packets_sent == 1  # int(1.9) = 1

    def test_bytes_conserved_end_to_end(self):
        net, a, b = make_pair()
        flow = open_flow(a, b, DctcpSender, total_packets=250)
        flow.start()
        net.sim.run(until=1.0)
        assert flow.completed
        assert flow.receiver.packets_received == 250
        assert flow.receiver.acks_sent == 250  # per-packet acks
        assert flow.sender.packets_sent == 250  # no spurious retransmits

