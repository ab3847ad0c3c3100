"""Differential tests: every per-packet fast lane vs the general body
it shortcuts.

No switch selects these lanes; the code takes them from what it
observes, so the tests steer them through the same observables and
require *exact* equivalence — same delivery trace on every interface
(times, flow ids, sequence numbers, CE/ECE bits), same queue counters,
same per-flow outcomes:

* fused send (``type(queue) is FifoQueue``) vs the method-call path: a
  :class:`TrackedFifoQueue` bottleneck swapped in before traffic, across
  every marker type and departure marking;
* the sender's cumulative-ACK and window-loop fast bodies
  (``use_sack=False``) vs the general ``_try_send``/``_on_new_ack``:
  ``use_sack=True`` on a lossless run, where no SACK block is ever
  emitted and the general bodies must reproduce the trace;
* the switch's memoized egress vs the pure :meth:`Switch.route_for`,
  attacked at every invalidation edge.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.marking import (
    DoubleThresholdMarker,
    NullMarker,
    REDMarker,
    SingleThresholdMarker,
)
from repro.sim.apps.bulk import launch_bulk_flows
from repro.sim.engine import Simulator
from repro.sim.node import Switch
from repro.sim.packet import Packet, packet_pool_size
from repro.sim.packet_log import PacketLogger
from repro.sim.queues import FifoQueue
from repro.sim.tcp.sender import DctcpSender
from repro.sim.topology import Network, dumbbell
from repro.sim.trace import TrackedFifoQueue

MARKERS = {
    "null": lambda: NullMarker(),
    "single": lambda: SingleThresholdMarker.from_threshold(40.0),
    "double": lambda: DoubleThresholdMarker.from_thresholds(30.0, 50.0),
    "red": lambda: REDMarker(min_th=20.0, max_th=60.0, max_p=0.5),
}


def _run_dumbbell(
    marker,
    tracked: bool = False,
    n_flows: int = 4,
    duration: float = 0.003,
    mark_on_dequeue: bool = False,
    **sender_kwargs,
):
    """One dumbbell run with every interface tapped.

    ``tracked`` swaps the bottleneck queue for a :class:`TrackedFifoQueue`
    of the same configuration before traffic, which takes the interface
    off the fused send.  Returns (delivery records, bottleneck stats,
    per-flow outcomes, events processed, bottleneck interface).
    """
    network = dumbbell(n_flows, marker)
    iface = network.network.interface_between(
        network.switch.node_id, network.receiver.node_id
    )
    if tracked or mark_on_dequeue:
        config = dict(
            marker=marker(), name="bottleneck", mark_on_dequeue=mark_on_dequeue
        )
        capacity = network.bottleneck_queue.capacity_bytes
        iface.queue = (
            TrackedFifoQueue(network.sim, capacity, **config)
            if tracked
            else FifoQueue(capacity, **config)
        )
    log = PacketLogger()
    for interface in network.network.all_interfaces():
        log.attach(interface)
    flows = launch_bulk_flows(network, sender_cls=DctcpSender, **sender_kwargs)
    base = min(f.sender.flow_id for f in flows)
    network.sim.run(until=duration)
    records = [
        dataclasses.replace(r, flow_id=r.flow_id - base) for r in log.records
    ]
    raw = iface.queue.stats
    stats = {field: getattr(raw, field) for field in raw.__slots__}
    per_flow = [
        (
            f.sender.packets_sent,
            f.sender.timeouts,
            f.sender.retransmits,
            f.receiver.packets_received,
        )
        for f in flows
    ]
    return records, stats, per_flow, network.sim.events_processed, iface


def _compare_plain_vs_tracked(marker, **kwargs):
    *plain, plain_iface = _run_dumbbell(marker, tracked=False, **kwargs)
    *tracked, tracked_iface = _run_dumbbell(marker, tracked=True, **kwargs)
    assert len(plain[0]) > 300, "scenario too small to be meaningful"
    assert tracked == plain
    return plain_iface, tracked_iface


class TestDumbbellTraces:
    @pytest.mark.parametrize("marker_key", sorted(MARKERS))
    def test_traces_identical_across_markers_and_link_send_paths(
        self, marker_key
    ):
        plain_iface, tracked_iface = _compare_plain_vs_tracked(
            MARKERS[marker_key]
        )
        # The two runs really took the two bodies of Interface.send.
        assert plain_iface._q_fused and plain_iface.model == "busy-until"
        assert not tracked_iface._q_fused
        assert tracked_iface.model == "busy-until"

    @pytest.mark.parametrize("marker_key", ["single", "double"])
    def test_traces_identical_under_departure_marking(self, marker_key):
        # mark_on_dequeue forces the two-event link lane; the base
        # enqueue/dequeue bodies and the time-stamping subclass on top
        # of them must still agree exactly.
        plain_iface, tracked_iface = _compare_plain_vs_tracked(
            MARKERS[marker_key], mark_on_dequeue=True
        )
        assert plain_iface.model == tracked_iface.model == "two-event"
        assert plain_iface.queue.stats.marked > 0

    @pytest.mark.parametrize("marker_key", ["single", "double"])
    def test_sender_fast_bodies_match_general_bodies_when_lossless(
        self, marker_key
    ):
        *fast, _ = _run_dumbbell(MARKERS[marker_key], use_sack=False)
        *general, iface = _run_dumbbell(MARKERS[marker_key], use_sack=True)
        assert len(fast[0]) > 300, "scenario too small to be meaningful"
        # Lossless, so the receivers never emitted a SACK block and the
        # scoreboard stayed empty: only the code path differed.
        assert iface.queue.stats.dropped == 0
        assert all(rtx == 0 for _, _, rtx, _ in general[2])
        assert general == fast

    @settings(max_examples=8, deadline=None)
    @given(
        n_flows=st.integers(min_value=2, max_value=6),
        threshold=st.sampled_from([10.0, 25.0, 40.0, 65.0]),
        marker_key=st.sampled_from(sorted(MARKERS)),
    )
    def test_traces_identical_on_random_scenarios(
        self, n_flows, threshold, marker_key
    ):
        markers = dict(
            MARKERS,
            single=lambda: SingleThresholdMarker.from_threshold(threshold),
        )
        *plain, _ = _run_dumbbell(
            markers[marker_key], n_flows=n_flows, duration=0.0015
        )
        *tracked, _ = _run_dumbbell(
            markers[marker_key], tracked=True, n_flows=n_flows,
            duration=0.0015,
        )
        assert tracked == plain


def _two_way_switch():
    """A switch with a 2-member ECMP group toward one destination id."""
    net = Network()
    switch = net.add_switch("sw")
    src = net.add_host("src")
    left = net.add_host("left")
    right = net.add_host("right")
    for host in (src, left, right):
        net.connect(
            host, switch, 10e9, 1e-6,
            queue_a_to_b=FifoQueue(1e6, name=f"{host.name}-up"),
            queue_b_to_a=FifoQueue(1e6, name=f"{host.name}-down"),
        )
    if_left = net.interface_between(switch.node_id, left.node_id)
    if_right = net.interface_between(switch.node_id, right.node_id)
    # Both egresses are installed as equal-cost paths toward ``left`` so
    # the seeded flow hash genuinely picks between members.
    switch.set_routes(left.node_id, (if_left, if_right))
    return net, switch, left, if_left, if_right


def _packet(flow_id, dst):
    return Packet(flow_id=flow_id, src=0, dst=dst, seq=0, size_bytes=1500)


class TestRouteMemoization:
    def test_switch_caches_routable_flows_only(self):
        _, switch, left, _, _ = _two_way_switch()
        switch.receive(_packet(7, left.node_id))
        assert (7, 0, left.node_id) in switch._route_cache
        switch.receive(_packet(9, 999))  # unroutable destination
        assert (9, 0, 999) not in switch._route_cache
        assert switch.packets_unroutable == 1

    def test_set_routes_invalidates_cache(self):
        _, switch, left, if_left, if_right = _two_way_switch()
        switch.set_routes(left.node_id, (if_left,))
        switch.receive(_packet(3, left.node_id))
        assert switch._route_cache[(3, 0, left.node_id)].__self__ is if_left
        # Reroute everything through the other egress: the memoized
        # entry must not survive, or the flow keeps the dead path.
        switch.set_routes(left.node_id, (if_right,))
        assert switch._route_cache == {}
        switch.receive(_packet(3, left.node_id))
        assert switch._route_cache[(3, 0, left.node_id)].__self__ is if_right

    def test_ecmp_seed_change_invalidates_cache(self):
        _, switch, left, _, _ = _two_way_switch()
        switch.receive(_packet(5, left.node_id))
        assert switch._route_cache
        switch.ecmp_seed = 12345
        assert switch._route_cache == {}
        # The refreshed cache must agree with the pure hash under the
        # new salt — for every flow, not just ones that moved.
        for flow_id in range(16):
            expected = switch.route_for(_packet(flow_id, left.node_id))
            switch.receive(_packet(flow_id, left.node_id))
            assert (
                switch._route_cache[(flow_id, 0, left.node_id)].__self__
                is expected
            )

    def test_withdraw_route_invalidates_cache(self):
        _, switch, left, _, _ = _two_way_switch()
        switch.receive(_packet(4, left.node_id))
        assert switch._route_cache
        switch.withdraw_route(left.node_id)
        assert switch._route_cache == {}
        # Not forwarded into the withdrawn group from a stale entry.
        switch.receive(_packet(4, left.node_id))
        assert switch.packets_unroutable == 1
        assert switch.packets_forwarded == 1

    def test_reset_forgets_routes_and_cache(self):
        _, switch, left, _, _ = _two_way_switch()
        switch.receive(_packet(2, left.node_id))
        assert switch.packets_forwarded == 1
        switch.reset()
        assert switch.fib == {}
        assert switch._route_cache == {}
        assert switch.packets_forwarded == 0
        switch.receive(_packet(2, left.node_id))
        assert switch.packets_unroutable == 1

    def test_memoized_and_pure_routes_pick_identical_egresses(self):
        _, switch, left, _, _ = _two_way_switch()
        for flow_id in range(64):
            expected = switch.route_for(_packet(flow_id, left.node_id))
            switch.receive(_packet(flow_id, left.node_id))
            assert (
                switch._route_cache[(flow_id, 0, left.node_id)].__self__
                is expected
            )
        assert switch.packets_unroutable == 0


class TestPacketPoolAccounting:
    """Drop and unroutable paths must return pooled packets (ISSUE 9).

    Before this PR a queue-overflow drop or an unroutable forward simply
    dropped the object reference, so every such packet leaked off the
    free list and the pool drained under sustained overload.
    """

    def test_overflow_drop_refills_free_list(self):
        queue = FifoQueue(1500.0, name="tiny")
        assert queue.enqueue(
            Packet.acquire(flow_id=0, src=0, dst=1, seq=0,
                           size_bytes=1500)
        )
        victim = Packet.acquire(
            flow_id=0, src=0, dst=1, seq=1, size_bytes=1500
        )
        before = packet_pool_size()
        assert not queue.enqueue(victim)
        assert packet_pool_size() == before + 1
        assert queue.stats.dropped == 1

    def test_unroutable_packet_refills_free_list(self):
        switch = Switch(Simulator(), "lone")
        victim = Packet.acquire(
            flow_id=0, src=0, dst=42, seq=0, size_bytes=1500
        )
        before = packet_pool_size()
        switch.receive(victim)
        assert packet_pool_size() == before + 1
        assert switch.packets_unroutable == 1

    def test_unpooled_packets_unaffected(self):
        # recycle() on a directly constructed packet is a no-op, so the
        # drop paths are safe for both allocation styles.
        queue = FifoQueue(1500.0, name="tiny")
        queue.enqueue(Packet(flow_id=0, src=0, dst=1, seq=0,
                             size_bytes=1500))
        before = packet_pool_size()
        assert not queue.enqueue(
            Packet(flow_id=0, src=0, dst=1, seq=1, size_bytes=1500)
        )
        assert packet_pool_size() == before
