"""Unit tests for interfaces (queue + transmitter + propagation).

Every behavioural test runs under both link models — the busy-until
fast lane and the two-event schedule, pinned before traffic — via the
``model`` fixture; the two implementations must be observably identical.
"""

import pytest

from repro.sim.buffer_pool import SharedBufferPool
from repro.sim.engine import Simulator
from repro.sim.link import Interface
from repro.sim.node import Node
from repro.sim.packet import Packet
from repro.sim.queues import FifoQueue


@pytest.fixture(params=["busy-until", "two-event"])
def model(request):
    return request.param


class Sink(Node):
    """Records delivered packets with timestamps."""

    def __init__(self, sim):
        super().__init__(sim, "sink")
        self.received = []

    def receive(self, packet):
        self.received.append((self.sim.now, packet))


def make_iface(sim, bw=1e9, delay=10e-6, capacity=1_000_000, model="busy-until"):
    sink = Sink(sim)
    iface = Interface(sim, bw, delay, FifoQueue(capacity), name="test")
    if model == "two-event":
        iface.pin_two_event()
    iface.connect(sink)
    return iface, sink


def data_packet(seq=0, size=1500):
    return Packet(flow_id=1, src=0, dst=1, seq=seq, size_bytes=size)


class TestTransmission:
    def test_delivery_time_is_serialization_plus_propagation(self, model):
        sim = Simulator()
        iface, sink = make_iface(sim, bw=1e9, delay=10e-6, model=model)
        iface.send(data_packet())
        sim.run()
        expected = 1500 * 8 / 1e9 + 10e-6
        assert sink.received[0][0] == pytest.approx(expected)

    def test_transmission_time_formula(self):
        sim = Simulator()
        iface, _ = make_iface(sim, bw=2e9)
        assert iface.transmission_time(data_packet(size=1000)) == pytest.approx(
            1000 * 8 / 2e9
        )

    def test_back_to_back_packets_serialize(self, model):
        sim = Simulator()
        iface, sink = make_iface(sim, bw=1e9, delay=0.0, model=model)
        for i in range(3):
            iface.send(data_packet(seq=i))
        sim.run()
        times = [t for t, _ in sink.received]
        tx = 1500 * 8 / 1e9
        assert times == pytest.approx([tx, 2 * tx, 3 * tx])

    def test_fifo_delivery_order(self, model):
        sim = Simulator()
        iface, sink = make_iface(sim, model=model)
        for i in range(10):
            iface.send(data_packet(seq=i))
        sim.run()
        assert [p.seq for _, p in sink.received] == list(range(10))

    def test_busy_flag_during_transmission(self, model):
        sim = Simulator()
        iface, _ = make_iface(sim, model=model)
        assert not iface.busy
        iface.send(data_packet())
        assert iface.busy
        sim.run()
        assert not iface.busy

    def test_pipelining_overlaps_propagation(self, model):
        """With large propagation delay, packet 2 transmits while packet
        1 is still in flight: delivery spacing equals tx time, not
        tx + prop."""
        sim = Simulator()
        iface, sink = make_iface(sim, bw=1e9, delay=1e-3, model=model)
        iface.send(data_packet(seq=0))
        iface.send(data_packet(seq=1))
        sim.run()
        gap = sink.received[1][0] - sink.received[0][0]
        assert gap == pytest.approx(1500 * 8 / 1e9)


class TestDropsAndCounters:
    def test_overflow_dropped_and_reported(self, model):
        sim = Simulator()
        iface, sink = make_iface(sim, capacity=3000, model=model)
        results = [iface.send(data_packet(seq=i)) for i in range(4)]
        sim.run()
        # One in the transmitter + two queued fit; the 4th drops.
        assert results == [True, True, True, False]
        assert len(sink.received) == 3

    def test_packets_delivered_counter(self, model):
        sim = Simulator()
        iface, _ = make_iface(sim, model=model)
        for i in range(5):
            iface.send(data_packet(seq=i))
        sim.run()
        assert iface.packets_delivered == 5


class TestModelSelection:
    def test_every_interface_starts_on_busy_until(self):
        iface = Interface(Simulator(), 1e9, 1e-6, FifoQueue(1000))
        assert iface.model == "busy-until"


class CountingHookQueue(FifoQueue):
    """Counts assignments to ``drain_hook`` (shadows the base slot)."""

    hook_assignments = 0

    @property
    def drain_hook(self):
        return self._hook

    @drain_hook.setter
    def drain_hook(self, hook):
        self.hook_assignments += 1
        self._hook = hook


class TestDrainHookInstalledOnce:
    """``Interface.send``'s cold path runs once per queue object: the
    bound ``_drain`` is cached, so the identity check can succeed."""

    def test_plain_queue_keeps_the_one_hook_object(self):
        sim = Simulator()
        iface, sink = make_iface(sim)
        iface.send(data_packet())
        hook = iface.queue.drain_hook
        assert hook is iface._drain_hook
        for seq in range(1, 200):
            iface.send(data_packet(seq=seq))
            assert iface.queue.drain_hook is hook
        sim.run()
        assert len(sink.received) == 200
        assert iface._q_fused

    def test_hook_is_assigned_exactly_once(self):
        sim = Simulator()
        queue = CountingHookQueue(1_000_000)
        assert queue.hook_assignments == 1  # FifoQueue.__init__'s None
        iface = Interface(sim, 1e9, 10e-6, queue, name="counted")
        sink = Sink(sim)
        iface.connect(sink)
        for seq in range(200):
            iface.send(data_packet(seq=seq))
            if seq % 7 == 0:
                sim.run()  # mix idle starts with back-to-back sends
        sim.run()
        assert len(sink.received) == 200
        assert queue.hook_assignments == 2
        assert not iface._q_fused  # a subclass: method-call path

    def test_pooled_queue_after_traffic_raises(self):
        sim = Simulator()
        iface, _ = make_iface(sim)
        iface.send(data_packet())
        sim.run()
        late = FifoQueue(1_000_000, pool=SharedBufferPool(4_000_000))
        iface.queue = late
        with pytest.raises(RuntimeError, match="'test'.*carried traffic"):
            iface.send(data_packet(seq=1))
        assert iface.model == "busy-until"
        assert late.drain_hook is None and late.stats.enqueued == 0

    def test_pooled_queue_before_traffic_runs_two_event(self):
        sim = Simulator()
        iface, sink = make_iface(sim)
        iface.queue = FifoQueue(1_000_000, pool=SharedBufferPool(4_000_000))
        iface.send(data_packet())
        assert iface.model == "two-event"
        assert iface.queue.drain_hook is None
        sim.run()
        assert len(sink.received) == 1


class TestPinTwoEvent:
    def test_pin_after_first_send_raises_naming_the_interface(self):
        sim = Simulator()
        iface, _ = make_iface(sim)
        iface.send(data_packet())
        with pytest.raises(RuntimeError, match="'test'.*carried traffic"):
            iface.pin_two_event()
        assert iface.model == "busy-until"
        sim.run()
        # Still refused once the wire is idle again: the busy-until
        # bookkeeping has run, the schedules are no longer aligned.
        with pytest.raises(RuntimeError, match="'test'"):
            iface.pin_two_event()

    def test_pin_clears_an_installed_drain_hook(self):
        # The first send installs the hook even when the queue then
        # rejects the packet, so the transmitter has still never run.
        sim = Simulator()
        iface, _ = make_iface(sim, capacity=1000)
        assert not iface.send(data_packet(size=1500))
        assert iface.queue.drain_hook is not None
        iface.pin_two_event()
        assert iface.model == "two-event"
        assert iface.queue.drain_hook is None

    def test_pinning_twice_is_a_no_op(self):
        sim = Simulator()
        iface, sink = make_iface(sim, model="two-event")
        iface.send(data_packet())
        iface.pin_two_event()  # already two-event: no traffic check
        assert iface.model == "two-event"
        sim.run()
        assert len(sink.received) == 1


class TestValidation:
    def test_send_before_connect_rejected(self):
        sim = Simulator()
        iface = Interface(sim, 1e9, 1e-6, FifoQueue(1000))
        with pytest.raises(RuntimeError):
            iface.send(data_packet())

    @pytest.mark.parametrize("bw,delay", [(0.0, 1e-6), (-1.0, 1e-6), (1e9, -1.0)])
    def test_invalid_parameters(self, bw, delay):
        with pytest.raises(ValueError):
            Interface(Simulator(), bw, delay, FifoQueue(1000))
