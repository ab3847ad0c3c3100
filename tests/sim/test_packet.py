"""Unit tests for the packet model."""

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.packet import ACK_BYTES, MSS_BYTES, Packet

packet_args = st.fixed_dictionaries(
    {
        "flow_id": st.integers(min_value=0, max_value=1000),
        "src": st.integers(min_value=0, max_value=64),
        "dst": st.integers(min_value=0, max_value=64),
        "seq": st.integers(min_value=-1, max_value=10**6),
        "size_bytes": st.integers(min_value=40, max_value=9000),
        "is_ack": st.booleans(),
        "ack_seq": st.integers(min_value=-1, max_value=10**6),
        "ecn_capable": st.booleans(),
    }
)

#: What every slot that is not a constructor argument starts as.
PER_TRIP_DEFAULTS = {
    "ce": False,
    "ece": False,
    "is_retransmit": False,
    "deliver_at": -1.0,
}


class TestPacket:
    def test_defaults(self):
        p = Packet(flow_id=1, src=0, dst=1, seq=5, size_bytes=1500)
        assert not p.is_ack
        assert not p.ce
        assert not p.ece
        assert p.ecn_capable
        assert not p.is_retransmit
        assert p.deliver_at == -1.0

    @given(args=packet_args)
    def test_fresh_packet_initialises_every_slot(self, args):
        # Endpoints construct one packet per segment and per ACK, so
        # construction alone must leave no slot unset or stale.
        packet = Packet(**args)
        expected = dict(args, **PER_TRIP_DEFAULTS)
        assert set(expected) == set(Packet.__slots__)
        for field, value in expected.items():
            assert getattr(packet, field) == value, field

    def test_constants_match_paper(self):
        assert MSS_BYTES == 1500  # "each packet is about 1.5KB"
        assert ACK_BYTES == 40

    def test_repr_shows_kind_and_flags(self):
        p = Packet(flow_id=2, src=0, dst=1, seq=7, size_bytes=1500)
        assert "DATA" in repr(p)
        p.ce = True
        assert "C" in repr(p)
        ack = Packet(flow_id=2, src=1, dst=0, seq=-1, size_bytes=40,
                     is_ack=True, ack_seq=8)
        ack.ece = True
        text = repr(ack)
        assert "ACK" in text
        assert "E" in text

    def test_non_ecn_capable(self):
        p = Packet(flow_id=1, src=0, dst=1, seq=0, size_bytes=100,
                   ecn_capable=False)
        assert not p.ecn_capable


class TestSenderCompletionEdgeCases:
    def test_completion_via_buffered_tail(self):
        """The last ACK can cover several packets at once when the tail
        was buffered out-of-order behind a hole."""
        from repro.sim.queues import FifoQueue
        from repro.sim.tcp.flow import open_flow
        from repro.sim.tcp.sender import DctcpSender
        from repro.sim.topology import Network

        class DropOnce(FifoQueue):
            def __init__(self, *a, **kw):
                super().__init__(*a, **kw)
                self.armed = True

            def enqueue(self, packet):
                if self.armed and not packet.is_ack and packet.seq == 6:
                    self.armed = False
                    self.stats.dropped += 1
                    return False
                return super().enqueue(packet)

        net = Network()
        a, b = net.add_host("a"), net.add_host("b")
        net.connect(a, b, 1e9, 20e-6, DropOnce(10e6), FifoQueue(10e6))
        net.finalize_routes()
        done = []
        flow = open_flow(a, b, DctcpSender, total_packets=10,
                         on_complete=done.append)
        flow.start()
        net.sim.run(until=2.0)
        assert flow.completed
        assert len(done) == 1
        assert flow.receiver.rcv_next == 10

    def test_acks_after_completion_ignored(self):
        from repro.sim.packet import Packet as P
        from repro.sim.queues import FifoQueue
        from repro.sim.tcp.flow import open_flow
        from repro.sim.tcp.sender import DctcpSender
        from repro.sim.topology import Network

        net = Network()
        a, b = net.add_host("a"), net.add_host("b")
        net.connect(a, b, 1e9, 20e-6, FifoQueue(10e6), FifoQueue(10e6))
        net.finalize_routes()
        flow = open_flow(a, b, DctcpSender, total_packets=3)
        flow.start()
        net.sim.run(until=1.0)
        assert flow.completed
        cwnd_before = flow.sender.cwnd
        stray = P(flow_id=flow.flow_id, src=b.node_id, dst=a.node_id,
                  seq=-1, size_bytes=40, is_ack=True, ack_seq=3)
        flow.sender.on_packet(stray)
        assert flow.sender.cwnd == cwnd_before
