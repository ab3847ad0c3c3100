"""Tests for hosts, switches, routing and the topology builders."""

import pytest

from repro.core.marking import NullMarker, SingleThresholdMarker
from repro.sim.engine import Simulator
from repro.sim.node import Host, Switch
from repro.sim.packet import Packet
from repro.sim.queues import FifoQueue
from repro.sim.topology import Network, dumbbell, paper_testbed


class Recorder:
    """Endpoint stub that records what reaches it."""

    def __init__(self):
        self.packets = []

    def on_packet(self, packet):
        self.packets.append(packet)


def droptail():
    return NullMarker()


class TestHost:
    def test_demux_by_flow_id(self):
        net = Network()
        a = net.add_host("a")
        b = net.add_host("b")
        net.connect(a, b, 1e9, 1e-6, FifoQueue(1e6), FifoQueue(1e6))
        net.finalize_routes()
        r1, r2 = Recorder(), Recorder()
        b.register_endpoint(1, r1)
        b.register_endpoint(2, r2)
        a.send(Packet(flow_id=2, src=a.node_id, dst=b.node_id, seq=0,
                      size_bytes=100))
        net.sim.run()
        assert len(r1.packets) == 0
        assert len(r2.packets) == 1

    def test_unknown_flow_dropped_silently(self):
        net = Network()
        a, b = net.add_host("a"), net.add_host("b")
        net.connect(a, b, 1e9, 1e-6, FifoQueue(1e6), FifoQueue(1e6))
        a.send(Packet(flow_id=99, src=a.node_id, dst=b.node_id, seq=0,
                      size_bytes=100))
        net.sim.run()
        assert b.packets_received == 1  # counted, no endpoint, no crash

    def test_duplicate_flow_registration_rejected(self):
        host = Host(Simulator())
        host.register_endpoint(1, Recorder())
        with pytest.raises(ValueError):
            host.register_endpoint(1, Recorder())

    def test_unregister_then_reregister(self):
        host = Host(Simulator())
        host.register_endpoint(1, Recorder())
        host.unregister_endpoint(1)
        host.register_endpoint(1, Recorder())  # no error

    def test_second_nic_rejected(self):
        net = Network()
        a, b, c = net.add_host("a"), net.add_host("b"), net.add_host("c")
        net.connect(a, b, 1e9, 1e-6, FifoQueue(1e6), FifoQueue(1e6))
        with pytest.raises(RuntimeError):
            net.connect(a, c, 1e9, 1e-6, FifoQueue(1e6), FifoQueue(1e6))

    def test_send_without_nic_rejected(self):
        host = Host(Simulator(), "lonely")
        with pytest.raises(RuntimeError, match="host lonely has no NIC"):
            host.send(Packet(flow_id=1, src=0, dst=1, seq=0, size_bytes=10))

    def test_attached_send_is_the_nics(self):
        net = Network()
        a, b = net.add_host("a"), net.add_host("b")
        net.connect(a, b, 1e9, 1e-6, FifoQueue(1e6), FifoQueue(1e6))
        # Bound methods compare equal when function and instance match:
        # an endpoint's ``host.send`` is the interface's, no host frame.
        assert a.send == a.nic.send

    def test_class_level_send_wrapper_leaves_hosts_working(self, monkeypatch):
        """A tracer may replace ``Host.send`` on the class before any
        network is built; construction and forwarding must survive it."""
        calls = []
        original = Host.send

        def wrapped(self, packet):
            calls.append(packet)
            return original(self, packet)

        monkeypatch.setattr(Host, "send", wrapped)
        net = Network()
        a, b = net.add_host("a"), net.add_host("b")
        net.connect(a, b, 1e9, 1e-6, FifoQueue(1e6), FifoQueue(1e6))
        net.finalize_routes()
        rec = Recorder()
        b.register_endpoint(1, rec)
        a.send(Packet(flow_id=1, src=a.node_id, dst=b.node_id, seq=0,
                      size_bytes=100))
        net.sim.run()
        assert len(rec.packets) == 1
        assert calls == []  # attached hosts bypass the class attribute


class TestSwitchForwarding:
    def test_forwards_along_fib(self):
        net = Network()
        a = net.add_host("a")
        s = net.add_switch("s")
        b = net.add_host("b")
        net.connect(a, s, 1e9, 1e-6, FifoQueue(1e6), FifoQueue(1e6))
        net.connect(s, b, 1e9, 1e-6, FifoQueue(1e6), FifoQueue(1e6))
        net.finalize_routes()
        rec = Recorder()
        b.register_endpoint(1, rec)
        a.send(Packet(flow_id=1, src=a.node_id, dst=b.node_id, seq=7,
                      size_bytes=500))
        net.sim.run()
        assert len(rec.packets) == 1
        assert rec.packets[0].seq == 7
        assert s.packets_forwarded == 1

    def test_unroutable_counted(self):
        sim = Simulator()
        switch = Switch(sim)
        switch.receive(Packet(flow_id=1, src=0, dst=12345, seq=0, size_bytes=10))
        assert switch.packets_unroutable == 1

    def test_route_must_use_own_interface(self):
        net = Network()
        s1, s2 = net.add_switch("s1"), net.add_switch("s2")
        h = net.add_host("h")
        net.connect(s1, h, 1e9, 1e-6, FifoQueue(1e6), FifoQueue(1e6))
        foreign = net.interface_between(s1.node_id, h.node_id)
        with pytest.raises(ValueError):
            s2.set_route(h.node_id, foreign)

    def test_multihop_path(self):
        net = Network()
        a = net.add_host("a")
        s1, s2 = net.add_switch("s1"), net.add_switch("s2")
        b = net.add_host("b")
        net.connect(a, s1, 1e9, 1e-6, FifoQueue(1e6), FifoQueue(1e6))
        net.connect(s1, s2, 1e9, 1e-6, FifoQueue(1e6), FifoQueue(1e6))
        net.connect(s2, b, 1e9, 1e-6, FifoQueue(1e6), FifoQueue(1e6))
        net.finalize_routes()
        rec = Recorder()
        b.register_endpoint(1, rec)
        a.send(Packet(flow_id=1, src=a.node_id, dst=b.node_id, seq=0,
                      size_bytes=100))
        net.sim.run()
        assert len(rec.packets) == 1
        assert s1.packets_forwarded == s2.packets_forwarded == 1


class TestNetwork:
    def test_interface_between_unknown_pair(self):
        net = Network()
        with pytest.raises(KeyError):
            net.interface_between(0, 1)

    def test_adjacency_records_both_directions(self):
        net = Network()
        a, b = net.add_host("a"), net.add_host("b")
        net.connect(a, b, 1e9, 1e-6, FifoQueue(1e6), FifoQueue(1e6))
        assert (a.node_id, b.node_id) in net.adjacency
        assert (b.node_id, a.node_id) in net.adjacency


class TestDumbbell:
    def test_structure(self):
        nw = dumbbell(5, droptail)
        assert len(nw.senders) == 5
        assert nw.bottleneck_queue is not None
        # switch has 5 sender-facing + 1 receiver-facing interface
        assert len(nw.switch.interfaces) == 6

    def test_rtt_budget(self):
        """A packet's round trip with empty queues equals the target RTT
        plus serialisation."""
        nw = dumbbell(1, droptail, bandwidth_bps=1e9, rtt=100e-6)
        sender = nw.senders[0]
        echo_times = []

        class Echo:
            def on_packet(self, packet):
                echo_times.append(nw.sim.now)

        sender.register_endpoint(1, Echo())

        class Reflect:
            def on_packet(self, packet):
                nw.receiver.send(
                    Packet(flow_id=1, src=nw.receiver.node_id,
                           dst=sender.node_id, seq=0, size_bytes=40)
                )

        nw.receiver.register_endpoint(1, Reflect())
        sender.send(Packet(flow_id=1, src=sender.node_id,
                           dst=nw.receiver.node_id, seq=0, size_bytes=1500))
        nw.sim.run()
        serialization = (1500 * 8 / 1e9) * 2 + (40 * 8 / 1e9) * 2
        assert echo_times[0] == pytest.approx(100e-6 + serialization, rel=0.01)

    def test_rejects_zero_senders(self):
        with pytest.raises(ValueError):
            dumbbell(0, droptail)

    def test_marker_installed_only_on_bottleneck(self):
        nw = dumbbell(
            2, lambda: SingleThresholdMarker.from_threshold(10)
        )
        assert isinstance(nw.bottleneck_queue.marker, SingleThresholdMarker)
        up = nw.network.interface_between(
            nw.senders[0].node_id, nw.switch.node_id
        )
        assert isinstance(up.queue.marker, NullMarker)


class TestPaperTestbed:
    def test_figure13_structure(self):
        tb = paper_testbed(droptail)
        assert len(tb.leaf_switches) == 3
        assert len(tb.workers) == 9
        # Core: 1 aggregator port + 3 leaf ports.
        assert len(tb.core_switch.interfaces) == 4
        # Leaves: 1 core port + 3 worker ports.
        assert all(len(leaf.interfaces) == 4 for leaf in tb.leaf_switches)

    def test_buffer_sizes_match_section_vib(self):
        tb = paper_testbed(droptail)
        assert tb.bottleneck_queue.capacity_bytes == 128 * 1024
        leaf_up = tb.network.interface_between(
            tb.leaf_switches[0].node_id, tb.core_switch.node_id
        )
        assert leaf_up.queue.capacity_bytes == 512 * 1024

    def test_worker_to_aggregator_path_exists(self):
        tb = paper_testbed(droptail)
        rec = Recorder()
        tb.aggregator.register_endpoint(1, rec)
        w = tb.workers[4]  # second leaf
        w.send(Packet(flow_id=1, src=w.node_id, dst=tb.aggregator.node_id,
                      seq=0, size_bytes=1500))
        tb.sim.run()
        assert len(rec.packets) == 1

    def test_rejects_empty_configuration(self):
        with pytest.raises(ValueError):
            paper_testbed(droptail, n_leaves=0)
