"""Unit tests for the TCP receiver: reassembly and the per-packet ECN echo."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.tcp.receiver import TcpReceiver


class FakeHost:
    """Captures ACKs the receiver emits instead of sending them."""

    def __init__(self, sim, node_id=7):
        self.sim = sim
        self.node_id = node_id
        self.sent = []

    def send(self, packet):
        self.sent.append(packet)
        return True


def data(seq, ce=False, flow=1):
    p = Packet(flow_id=flow, src=3, dst=7, seq=seq, size_bytes=1500)
    p.ce = ce
    return p


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def host(sim):
    return FakeHost(sim)


def make_receiver(sim, host):
    return TcpReceiver(sim, host, flow_id=1, peer_node_id=3)


class TestCumulativeAck:
    def test_in_order_advances(self, sim, host):
        rx = make_receiver(sim, host)
        for i in range(3):
            rx.on_packet(data(i))
        assert rx.rcv_next == 3
        assert [a.ack_seq for a in host.sent] == [1, 2, 3]

    def test_ack_fields(self, sim, host):
        rx = make_receiver(sim, host)
        rx.on_packet(data(0))
        ack = host.sent[0]
        assert ack.is_ack
        assert ack.flow_id == 1
        assert ack.dst == 3
        assert ack.size_bytes == 40

    def test_out_of_order_buffered(self, sim, host):
        rx = make_receiver(sim, host)
        rx.on_packet(data(0))
        rx.on_packet(data(2))  # hole at 1
        assert rx.rcv_next == 1
        assert host.sent[-1].ack_seq == 1  # duplicate ACK
        rx.on_packet(data(1))  # hole filled
        assert rx.rcv_next == 3
        assert host.sent[-1].ack_seq == 3

    def test_duplicate_data_counted(self, sim, host):
        rx = make_receiver(sim, host)
        rx.on_packet(data(0))
        rx.on_packet(data(0))
        assert rx.duplicates_received == 1
        assert rx.rcv_next == 1

    def test_out_of_order_forces_immediate_dupacks(self, sim, host):
        rx = make_receiver(sim, host)
        rx.on_packet(data(0))
        rx.on_packet(data(5))
        rx.on_packet(data(6))
        # Each out-of-order arrival forced an immediate ACK.
        acks = [a.ack_seq for a in host.sent]
        assert acks == [1, 1, 1]

    def test_in_order_arrival_pops_the_buffered_run(self, sim, host):
        rx = make_receiver(sim, host)
        rx.on_packet(data(0))
        for seq in (4, 2, 3, 7):
            rx.on_packet(data(seq))
        assert rx.rcv_next == 1
        rx.on_packet(data(1))  # joins up with 2-4, not with 7
        assert rx.rcv_next == 5
        assert host.sent[-1].ack_seq == 5
        rx.on_packet(data(5))
        rx.on_packet(data(6))
        assert rx.rcv_next == 8
        assert rx.packets_received == 8
        assert rx.duplicates_received == 0

    def test_ignores_stray_acks(self, sim, host):
        rx = make_receiver(sim, host)
        ack = Packet(flow_id=1, src=3, dst=7, seq=-1, size_bytes=40,
                     is_ack=True, ack_seq=5)
        rx.on_packet(ack)
        assert rx.rcv_next == 0
        assert host.sent == []


class TestEcnEcho:
    def test_unmarked_stream_echoes_nothing(self, sim, host):
        rx = make_receiver(sim, host)
        for i in range(4):
            rx.on_packet(data(i))
        assert not any(a.ece for a in host.sent)

    def test_marked_packet_echoed(self, sim, host):
        rx = make_receiver(sim, host)
        rx.on_packet(data(0, ce=True))
        assert host.sent[0].ece

    def test_per_packet_acks_echo_exactly(self, sim, host):
        rx = make_receiver(sim, host)
        pattern = [False, True, True, False, True]
        for i, ce in enumerate(pattern):
            rx.on_packet(data(i, ce=ce))
        assert [a.ece for a in host.sent] == pattern

    def test_marked_fraction_reconstructable(self, sim, host):
        """Sender-side alpha needs the ECE-flagged ACKs to count the
        marked packets exactly - verify over a mixed pattern, out of
        order and duplicated arrivals included."""
        rx = make_receiver(sim, host)
        pattern = [False, False, True, True, True, False, True, False, False]
        arrivals = (0, 2, 1, 3, 3, 4, 5, 6, 7, 8)
        for seq in arrivals:
            rx.on_packet(data(seq, ce=pattern[seq]))
        assert [a.ece for a in host.sent] == [pattern[s] for s in arrivals]
