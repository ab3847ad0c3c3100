"""Tests for the TCP senders (Reno / ECN-Reno / DCTCP).

Most tests run a real sender against a real receiver over a two-host
direct link; loss and marking are injected by swapping the forward
queue for an instrumented one.
"""

import pytest

from repro.core.marking import SingleThresholdMarker
from repro.sim.packet import Packet
from repro.sim.queues import FifoQueue
from repro.sim.tcp.flow import open_flow
from repro.sim.tcp.sender import (
    INITIAL_SSTHRESH,
    DctcpSender,
    EcnRenoSender,
    RenoSender,
    TcpSender,
)
from repro.sim.topology import Network

BW = 1e9
DELAY = 25e-6
RTT = 4 * DELAY + 2 * (1500 * 8 / BW)  # approx, with serialisation


class LossyQueue(FifoQueue):
    """Drops the packets whose data seq appears in ``drop_seqs`` (once)."""

    def __init__(self, *args, drop_seqs=(), **kwargs):
        super().__init__(*args, **kwargs)
        self.drop_seqs = set(drop_seqs)

    def enqueue(self, packet):
        if not packet.is_ack and packet.seq in self.drop_seqs:
            self.drop_seqs.remove(packet.seq)
            self.stats.dropped += 1
            return False
        return super().enqueue(packet)


def make_pair(forward_queue=None):
    net = Network()
    a, b = net.add_host("a"), net.add_host("b")
    fq = forward_queue if forward_queue is not None else FifoQueue(10e6)
    net.connect(a, b, BW, DELAY, fq, FifoQueue(10e6))
    net.finalize_routes()
    return net, a, b


class TestBasicTransfer:
    def test_sized_transfer_completes(self):
        net, a, b = make_pair()
        done = []
        flow = open_flow(a, b, DctcpSender, total_packets=50,
                         on_complete=done.append)
        flow.start()
        net.sim.run(until=1.0)
        assert flow.completed
        assert len(done) == 1
        assert flow.receiver.rcv_next == 50

    def test_no_timeouts_or_retransmits_on_clean_path(self):
        net, a, b = make_pair()
        flow = open_flow(a, b, DctcpSender, total_packets=100)
        flow.start()
        net.sim.run(until=1.0)
        assert flow.sender.timeouts == 0
        assert flow.sender.retransmits == 0

    def test_start_delay_respected(self):
        net, a, b = make_pair()
        flow = open_flow(a, b, DctcpSender, total_packets=1)
        flow.start(delay=0.5)
        net.sim.run(until=0.4)
        assert flow.sender.packets_sent == 0
        net.sim.run(until=1.0)
        assert flow.completed

    def test_double_start_rejected(self):
        net, a, b = make_pair()
        flow = open_flow(a, b, DctcpSender, total_packets=1)
        flow.start()
        with pytest.raises(RuntimeError):
            flow.start()

    def test_completion_time_matches_bandwidth(self):
        net, a, b = make_pair()
        done = []
        n = 1000
        flow = open_flow(a, b, DctcpSender, total_packets=n,
                         on_complete=done.append, initial_cwnd=50)
        flow.start()
        net.sim.run(until=1.0)
        ideal = n * 1500 * 8 / BW
        assert done[0] == pytest.approx(ideal, rel=0.2)

    def test_in_flight_bounded_by_cwnd(self):
        net, a, b = make_pair()
        flow = open_flow(a, b, DctcpSender, total_packets=500,
                         initial_cwnd=7)
        flow.start()
        net.sim.run(until=5 * RTT)
        # cwnd grows in slow start but in_flight never exceeded it.
        assert flow.sender.in_flight <= int(flow.sender.cwnd)


class TestSlowStartAndCa:
    def test_slow_start_doubles_per_rtt(self):
        net, a, b = make_pair()
        flow = open_flow(a, b, DctcpSender, total_packets=10_000,
                         initial_cwnd=2)
        flow.start()
        net.sim.run(until=3.5 * RTT)
        # After ~3 RTTs of doubling: cwnd ~ 2 * 2^3 = 16 (loose bounds).
        assert 8 <= flow.sender.cwnd <= 40

    def test_congestion_avoidance_linear(self):
        net, a, b = make_pair()
        flow = open_flow(a, b, DctcpSender, total_packets=100_000,
                         initial_cwnd=10)
        flow.sender.ssthresh = 10.0  # start directly in CA
        flow.start()
        net.sim.run(until=6 * RTT)
        # +1 MSS per RTT from 10: roughly 15-17 after ~6 RTTs.
        assert 12 <= flow.sender.cwnd <= 20

    def test_validation_errors(self):
        net, a, b = make_pair()
        with pytest.raises(ValueError):
            open_flow(a, b, DctcpSender, total_packets=0)
        with pytest.raises(ValueError):
            open_flow(a, b, DctcpSender, initial_cwnd=0.5)


class TestFastRetransmit:
    def test_single_loss_recovers_without_timeout(self):
        q = LossyQueue(10e6, drop_seqs={30})
        net, a, b = make_pair(q)
        flow = open_flow(a, b, DctcpSender, total_packets=100)
        flow.start()
        net.sim.run(until=1.0)
        assert flow.completed
        assert flow.sender.timeouts == 0
        assert flow.sender.retransmits >= 1

    def test_window_halved_after_fast_retransmit(self):
        q = LossyQueue(10e6, drop_seqs={40})
        net, a, b = make_pair(q)
        flow = open_flow(a, b, DctcpSender, total_packets=2000,
                         initial_cwnd=2)
        flow.start()
        peak = {"cwnd": 0.0}

        def watch():
            peak["cwnd"] = max(peak["cwnd"], flow.sender.cwnd)
            if not flow.completed:
                net.sim.schedule(RTT / 4, watch)

        net.sim.schedule(0.0, watch)
        net.sim.run(until=20 * RTT)
        assert flow.sender.ssthresh <= peak["cwnd"]
        assert flow.sender.timeouts == 0

    def test_multiple_losses_in_window_newreno(self):
        q = LossyQueue(10e6, drop_seqs={30, 32, 34})
        net, a, b = make_pair(q)
        flow = open_flow(a, b, DctcpSender, total_packets=100)
        flow.start()
        net.sim.run(until=2.0)
        assert flow.completed


class TestTimeout:
    def test_tail_loss_needs_rto(self):
        """Losing the last packet leaves no dupacks: only the RTO can
        recover it."""
        q = LossyQueue(10e6, drop_seqs={99})
        net, a, b = make_pair(q)
        done = []
        flow = open_flow(a, b, DctcpSender, total_packets=100,
                         on_complete=done.append, min_rto=0.2)
        flow.start()
        net.sim.run(until=2.0)
        assert flow.completed
        assert flow.sender.timeouts == 1
        assert done[0] >= 0.2  # paid one min-RTO

    def test_rto_collapses_window_to_one(self):
        q = LossyQueue(10e6, drop_seqs={99})
        net, a, b = make_pair(q)
        flow = open_flow(a, b, DctcpSender, total_packets=100, min_rto=0.2)
        flow.start()
        net.sim.run(until=0.21)  # just past the timeout
        assert flow.sender.cwnd <= 2.0

    def test_repeated_timeouts_back_off(self):
        """Dropping the retransmissions too forces exponential backoff."""
        q = LossyQueue(10e6, drop_seqs={99})
        net, a, b = make_pair(q)

        # Also drop the first two retransmissions of 99.
        original = q.enqueue
        state = {"rtx_drops": 2}

        def enqueue(packet):
            if (not packet.is_ack and packet.seq == 99
                    and packet.is_retransmit and state["rtx_drops"] > 0):
                state["rtx_drops"] -= 1
                q.stats.dropped += 1
                return False
            return original(packet)

        q.enqueue = enqueue
        done = []
        flow = open_flow(a, b, DctcpSender, total_packets=100,
                         on_complete=done.append, min_rto=0.2)
        flow.start()
        net.sim.run(until=5.0)
        assert flow.completed
        assert flow.sender.timeouts == 3
        # 0.2 + 0.4 + 0.8 of backoff before success.
        assert done[0] >= 1.4

    def test_go_back_n_rewind_resends_presumed_lost(self):
        q = LossyQueue(10e6, drop_seqs={95, 96, 97, 98, 99})
        net, a, b = make_pair(q)
        flow = open_flow(a, b, DctcpSender, total_packets=100, min_rto=0.2)
        flow.start()
        net.sim.run(until=3.0)
        assert flow.completed
        # One timeout covers the whole lost tail (go-back-N), not five.
        assert flow.sender.timeouts <= 2


class TestEcnReactions:
    def run_with_marking(self, sender_cls, threshold=5, n=4000, until=0.2):
        marked_q = FifoQueue(
            10e6, marker=SingleThresholdMarker.from_threshold(threshold)
        )
        net, a, b = make_pair(marked_q)
        flow = open_flow(a, b, sender_cls, total_packets=n)
        flow.start()
        net.sim.run(until=until)
        return flow, marked_q

    def test_reno_is_not_ecn_capable(self):
        flow, q = self.run_with_marking(RenoSender)
        assert q.stats.marked == 0  # non-ECT traffic is never marked

    def test_ecn_reno_halves_on_ece(self):
        flow, q = self.run_with_marking(EcnRenoSender)
        assert q.stats.marked > 0
        # The echoed marks cut the window: nothing else sets ssthresh
        # on this loss-free path.
        assert flow.sender.ssthresh < INITIAL_SSTHRESH
        # The queue-based marking bounds the window near the threshold.
        assert flow.sender.cwnd < 50

    def test_dctcp_alpha_converges_to_marked_fraction(self):
        flow, q = self.run_with_marking(DctcpSender, until=0.4)
        sender = flow.sender
        assert 0.0 < sender.alpha < 1.0
        marked_fraction = q.stats.marked / max(q.stats.enqueued, 1)
        assert sender.alpha == pytest.approx(marked_fraction, abs=0.25)

    def test_dctcp_cut_is_proportional(self):
        """With small alpha the DCTCP cut is much gentler than half."""
        net, a, b = make_pair(
            FifoQueue(10e6, marker=SingleThresholdMarker.from_threshold(5))
        )
        flow = open_flow(a, b, DctcpSender, total_packets=10_000)
        flow.sender.alpha = 0.2
        flow.sender.cwnd = 100.0
        flow.sender.ssthresh = 50.0
        ack = Packet(flow_id=flow.flow_id, src=b.node_id, dst=a.node_id,
                     seq=-1, size_bytes=40, is_ack=True, ack_seq=0)
        ack.ece = True
        # Simulate receiving an ECE ack covering one packet.
        flow.sender.next_seq = 10
        flow.sender._high_water = 10
        ack.ack_seq = 1
        flow.sender.on_packet(ack)
        # The window boundary is crossed first, so alpha updates to
        # (1-g)*0.2 + g*1 = 0.25, then cwnd *= (1 - 0.25/2) = 87.5 -
        # far gentler than Reno's halving to 50.
        assert flow.sender.cwnd == pytest.approx(87.5, abs=0.1)

    def test_dctcp_initial_alpha_default_pessimistic(self):
        net, a, b = make_pair()
        flow = open_flow(a, b, DctcpSender, total_packets=1)
        assert flow.sender.alpha == 1.0

    def test_dctcp_invalid_parameters(self):
        net, a, b = make_pair()
        with pytest.raises(ValueError):
            open_flow(a, b, DctcpSender, total_packets=1, g=1.5)

    def test_at_most_one_cut_per_window(self):
        net, a, b = make_pair(
            FifoQueue(10e6, marker=SingleThresholdMarker.from_threshold(1))
        )
        flow = open_flow(a, b, DctcpSender, total_packets=200,
                         initial_cwnd=20)
        flow.start()
        cuts = []
        original = DctcpSender._on_ecn_feedback

        net.sim.run(until=1.0)
        # Heavy marking with alpha = 1 would zero the window if cuts were
        # per-ACK; the once-per-window rule keeps it at or above 1.
        assert flow.sender.cwnd >= 1.0
        assert flow.completed


class TestFlowWiring:
    def test_flow_ids_unique(self):
        net, a, b = make_pair()
        f1 = open_flow(a, b, DctcpSender, total_packets=1)
        f2 = open_flow(a, b, DctcpSender, total_packets=1)
        assert f1.flow_id != f2.flow_id

    def test_close_unregisters_endpoints(self):
        net, a, b = make_pair()
        flow = open_flow(a, b, DctcpSender, total_packets=1)
        flow.close()
        # Re-registering the same flow id must now succeed.
        a.register_endpoint(flow.flow_id, flow.sender)
        b.register_endpoint(flow.flow_id, flow.receiver)

    def test_cross_simulation_flow_rejected(self):
        net1, a1, _ = make_pair()
        net2, _, b2 = make_pair()
        with pytest.raises(ValueError):
            open_flow(a1, b2, DctcpSender, total_packets=1)

    def test_sender_kwargs_forwarded(self):
        net, a, b = make_pair()
        flow = open_flow(a, b, DctcpSender, total_packets=1, g=0.25,
                         initial_cwnd=4, min_rto=0.5)
        assert flow.sender.g == 0.25
        assert flow.sender.cwnd == 4.0
        assert flow.sender.rtt.min_rto == 0.5
