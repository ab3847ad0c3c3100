"""Differential tests: every per-packet fast lane vs the general body
it shortcuts, and the sender's one body vs the general bodies it
replaced.

No switch selects these lanes; the code takes them from what it
observes, so the tests steer them through the same observables and
require *exact* equivalence — same delivery trace on every interface
(times, flow ids, sequence numbers, CE/ECE bits), same queue counters,
same per-flow outcomes:

* fused send (``type(queue) is FifoQueue``) vs the method-call path: a
  :class:`TrackedFifoQueue` bottleneck swapped in before traffic, across
  every marker type;
* the sender's single ``_try_send``/``_on_new_ack`` vs
  :class:`tests.sim.oracles.GeneralBodySender` (the deleted general
  bodies, handed in through ``sender_cls=``) under loss — fast
  retransmit, partial ACKs, RTOs, go-back-N;
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
from repro.experiments.fig14_incast import (
    TESTBED_INITIAL_CWND,
    TESTBED_START_JITTER,
)
from repro.experiments.protocols import dctcp_testbed
from repro.sim.apps.bulk import launch_bulk_flows
from repro.sim.apps.incast import FanInApp
from repro.sim.packet import MSS_BYTES, Packet
from repro.sim.packet_log import PacketLogger
from repro.sim.queues import FifoQueue
from repro.sim.tcp.sender import DctcpSender
from repro.sim.topology import Network, dumbbell, paper_testbed
from repro.sim.trace import TrackedFifoQueue
from tests.sim.oracles import GeneralBodySender

MARKERS = {
    "null": lambda: NullMarker(),
    "single": lambda: SingleThresholdMarker.from_threshold(40.0),
    "double": lambda: DoubleThresholdMarker.from_thresholds(30.0, 50.0),
    "red": lambda: REDMarker(min_th=20.0, max_th=60.0, max_p=0.5),
}


def _rebased_records(log: PacketLogger):
    """Delivery records with flow ids rebased to zero (flow ids come
    from a process-global counter; rebasing makes them positional)."""
    base = min(r.flow_id for r in log.records)
    return [dataclasses.replace(r, flow_id=r.flow_id - base) for r in log.records]


def _run_dumbbell(
    marker,
    tracked: bool = False,
    n_flows: int = 4,
    duration: float = 0.003,
    sender_cls=DctcpSender,
    buffer_pkts=None,
    **sender_kwargs,
):
    """One dumbbell run with every interface tapped.

    ``tracked`` swaps the bottleneck queue for a :class:`TrackedFifoQueue`
    of the same configuration before traffic, which takes the interface
    off the fused send; ``buffer_pkts`` shrinks the bottleneck buffer
    until it overflows.  Returns (delivery records, bottleneck stats,
    per-flow outcomes, events processed, bottleneck interface).
    """
    if buffer_pkts is None:
        network = dumbbell(n_flows, marker)
    else:
        network = dumbbell(
            n_flows, marker, bottleneck_buffer_bytes=buffer_pkts * MSS_BYTES
        )
    iface = network.network.interface_between(
        network.switch.node_id, network.receiver.node_id
    )
    if tracked:
        iface.queue = TrackedFifoQueue(
            network.sim,
            network.bottleneck_queue.capacity_bytes,
            marker=marker(),
            name="bottleneck",
        )
    log = PacketLogger()
    for interface in network.network.all_interfaces():
        log.attach(interface)
    flows = launch_bulk_flows(network, sender_cls=sender_cls, **sender_kwargs)
    network.sim.run(until=duration)
    records = _rebased_records(log)
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


def _run_incast(sender_cls, n_flows: int = 45):
    """One Figure 14-style incast query past collapse, every interface
    tapped; everything observable."""
    testbed = paper_testbed(dctcp_testbed().marker_factory, bandwidth_bps=1e9)
    log = PacketLogger()
    for interface in testbed.network.all_interfaces():
        log.attach(interface)
    app = FanInApp(
        testbed.aggregator,
        testbed.workers,
        n_flows=n_flows,
        bytes_per_flow=64 * 1024,
        n_queries=1,
        sender_cls=sender_cls,
        initial_cwnd=TESTBED_INITIAL_CWND,
        start_jitter=TESTBED_START_JITTER,
        on_done=testbed.sim.stop,
    )
    app.start()
    testbed.sim.run(until=60.0)
    records = _rebased_records(log)
    raw = testbed.bottleneck_queue.stats
    stats = {field: getattr(raw, field) for field in raw.__slots__}
    per_query = [
        (r.completion_time, r.timeouts, r.retransmits) for r in app.results
    ]
    return records, stats, per_query, testbed.sim.events_processed


class TestSenderBodies:
    """The sender's one body vs the general bodies it replaced, where
    they could differ: under loss."""

    def test_incast_collapse_matches_general_bodies(self):
        one = _run_incast(DctcpSender)
        general = _run_incast(GeneralBodySender)
        records, stats, per_query, _ = general
        # 45 synchronized 64 KB responses overflow the 128 KB buffer:
        # drops, fast retransmits and real RTOs with go-back-N.
        assert stats["dropped"] > 0
        assert sum(timeouts for _, timeouts, _ in per_query) > 0
        assert sum(rtx for _, _, rtx in per_query) > 0
        assert len(records) > 2000, "scenario too small to be meaningful"
        assert one == general

    @settings(max_examples=8, deadline=None)
    @given(
        n_flows=st.integers(min_value=2, max_value=6),
        buffer_pkts=st.integers(min_value=4, max_value=24),
        marker_key=st.sampled_from(["null", "single"]),
    )
    def test_lossy_dumbbell_matches_general_bodies(
        self, n_flows, buffer_pkts, marker_key
    ):
        kwargs = dict(
            n_flows=n_flows, buffer_pkts=buffer_pkts, duration=0.006,
            min_rto=500e-6,
        )
        *one, _ = _run_dumbbell(MARKERS[marker_key], **kwargs)
        *general, iface = _run_dumbbell(
            MARKERS[marker_key], sender_cls=GeneralBodySender, **kwargs
        )
        assert iface.queue.stats.dropped > 0
        assert any(rtx > 0 for _, _, rtx, _ in general[2])
        assert one == general


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
