"""TCP resilience under link outages, and route-cache soundness.

The regression half: an outage *longer than the RTO backoff cap* must
not wedge the sender — retries keep firing at ``max_rto`` pace, so the
flow resumes within a bounded time of link-up, with the shipped
soft-deadline timer and with the eager-timer oracle sender
(:mod:`tests.sim.oracles`).  Before the cap flowed through the
campaign plumbing, a single unlucky doubling could sleep a flow past
the entire measurement window.

The routing half attacks the switch's memoized bound-``send`` entries
directly: a downed egress must never be used (neither from the
FIB nor from the cache), re-routing during the outage goes over the
surviving ECMP members, and recovery restores the pristine group in
its original member order so flow placement after a flap is
byte-identical to a fabric that never flapped.
"""

from __future__ import annotations

import pytest

from repro.core.marking import SingleThresholdMarker
from repro.sim.chaos import ChaosSchedule
from repro.sim.invariants import InvariantWatchdog
from repro.sim.packet import Packet
from repro.sim.queues import FifoQueue
from repro.sim.tcp.flow import open_flow
from repro.sim.topology import Network, dumbbell
from tests.sim.oracles import TIMER_SENDERS


class TestOutageRecovery:
    """Senders survive outages that outlast the capped RTO backoff."""

    @pytest.mark.parametrize("timer", ["eager", "soft-deadline"])
    def test_flow_resumes_after_outage_longer_than_max_rto(self, timer):
        min_rto, max_rto = 1e-3, 0.02
        # Strike 200 us in — mid-transfer — and keep the link dark for
        # half a second, far beyond the 20 ms backoff cap.
        outage_start, outage_len = 2e-4, 0.5
        network = dumbbell(
            1, lambda: SingleThresholdMarker.from_threshold(40.0),
            rtt=1e-4,
        )
        ChaosSchedule(seed=0).outage(
            "switch", "client", t0=outage_start, duration=outage_len,
        ).install(network.network)
        watchdog = InvariantWatchdog(network.network)
        done = []
        flow = open_flow(
            network.senders[0],
            network.receiver,
            sender_cls=TIMER_SENDERS[timer],
            total_packets=200,
            on_complete=done.append,
            min_rto=min_rto,
            max_rto=max_rto,
        )
        flow.start()
        network.sim.run(until=1.0)
        watchdog.check()  # in particular: no wedged sender

        assert done, "flow never completed after the outage"
        # Backoff is capped, so the first successful retry lands within
        # one max_rto of link-up and the rest of the flow takes ~ms.
        recovery = done[0] - (outage_start + outage_len)
        assert 0.0 < recovery < 3 * max_rto
        # The outage genuinely exercised the backoff path: during 0.5 s
        # of darkness a capped sender must keep probing.
        assert flow.sender.timeouts >= outage_len / max_rto
        assert flow.sender.in_flight == 0

    @pytest.mark.parametrize("timer", ["eager", "soft-deadline"])
    def test_uncapped_sender_recovers_too_just_slower(self, timer):
        # Sanity on the default 60 s cap: exponential backoff alone may
        # not wedge the flow — the timer must still be armed throughout
        # (the watchdog checks exactly that at every audit).
        network = dumbbell(
            1, lambda: SingleThresholdMarker.from_threshold(40.0),
            rtt=1e-4,
        )
        ChaosSchedule(seed=0).outage(
            "switch", "client", t0=2e-4, duration=0.05,
        ).install(network.network)
        watchdog = InvariantWatchdog(network.network)
        done = []
        flow = open_flow(
            network.senders[0],
            network.receiver,
            sender_cls=TIMER_SENDERS[timer],
            total_packets=500,
            on_complete=done.append,
            min_rto=1e-3,
        )
        flow.start()
        watchdog.start(interval=5e-3)
        network.sim.run(until=1.0)
        watchdog.check()
        assert done, "flow never completed after the outage"
        assert flow.sender.timeouts > 0


def _diamond():
    """src -> s1 -> {s2 | s3} -> s4 -> dst: one ECMP choice at s1."""
    net = Network()
    src = net.add_host("src")
    dst = net.add_host("dst")
    s1 = net.add_switch("s1")
    s2 = net.add_switch("s2")
    s3 = net.add_switch("s3")
    s4 = net.add_switch("s4")
    for a, b in (
        (src, s1), (s1, s2), (s1, s3), (s2, s4), (s3, s4), (s4, dst),
    ):
        net.connect(
            a, b, 1e9, 1e-6,
            queue_a_to_b=FifoQueue(1e6, name=f"{a.name}>{b.name}"),
            queue_b_to_a=FifoQueue(1e6, name=f"{b.name}>{a.name}"),
        )
    net.finalize_routes(ecmp_seed=0)
    return net, src, dst, s1, s2, s3


def _burst(net, src, dst, t0: float, flows=range(16)):
    for i, flow_id in enumerate(flows):
        net.sim.schedule_at(
            t0 + i * 20e-6,
            lambda f=flow_id: src.send(
                Packet(flow_id=f, src=src.node_id, dst=dst.node_id,
                       seq=0, size_bytes=1500)
            ),
        )


class TestRouteCacheUnderOutage:
    def test_downed_egress_never_used_and_recovery_is_pristine(self):
        net, src, dst, s1, s2, s3 = _diamond()
        pristine_group = s1.fib[dst.node_id]
        assert len(pristine_group) == 2, "diamond is not ECMP at s1"
        via_s2 = net.interface_between(s1.node_id, s2.node_id)
        via_s3 = net.interface_between(s1.node_id, s3.node_id)

        ChaosSchedule(seed=0).outage(
            "s1", "s2", t0=1e-3, duration=1e-3, direction="a->b"
        ).install(net)

        observed = {}

        def snapshot(label):
            observed[label] = (
                via_s2.queue.stats.enqueued,
                via_s3.queue.stats.enqueued,
                dict(s1._route_cache),
            )

        _burst(net, src, dst, t0=0.0)             # warm the cache
        net.sim.schedule_at(1.1e-3, snapshot, "down")
        _burst(net, src, dst, t0=1.2e-3)          # mid-outage traffic
        net.sim.schedule_at(1.9e-3, snapshot, "mid")
        _burst(net, src, dst, t0=2.5e-3)          # after recovery
        net.sim.run(until=5e-3)

        # Going down cleared every memoized bound-send.
        assert observed["down"][2] == {}
        # Mid-outage: all 16 flows re-resolved onto the survivor;
        # the downed egress was never offered a packet.
        s2_down, s3_down, _ = observed["down"]
        s2_mid, s3_mid, cache_mid = observed["mid"]
        assert s2_mid == s2_down
        assert s3_mid == s3_down + 16
        assert cache_mid, "the switch memoized nothing"
        assert all(
            bound.__self__ is via_s3 for bound in cache_mid.values()
        )

        # Recovery restored the pristine group, same member order,
        # and post-recovery memoization agrees with the pure hash —
        # i.e. placement is identical to a never-flapped fabric.
        assert s1.fib[dst.node_id] == pristine_group
        for flow_id in range(16):
            probe = Packet(flow_id=flow_id, src=src.node_id,
                           dst=dst.node_id, seq=0, size_bytes=1500)
            key = (flow_id, src.node_id, dst.node_id)
            assert s1._route_cache[key].__self__ is s1.route_for(probe)
        # Both members are genuinely in play again after recovery.
        assert via_s2.queue.stats.enqueued > s2_mid

    def test_total_partition_makes_destination_unroutable(self):
        net, src, dst, s1, s2, s3 = _diamond()
        (
            ChaosSchedule(seed=0)
            .outage("s1", "s2", t0=1e-3, duration=1e-3, direction="a->b")
            .outage("s1", "s3", t0=1e-3, duration=1e-3, direction="a->b")
            .install(net)
        )
        _burst(net, src, dst, t0=1.2e-3)
        net.sim.run(until=3e-3)
        # No surviving member: the destination was withdrawn and all
        # 16 packets counted (and recycled) as unroutable.
        assert s1.packets_unroutable == 16
        # Recovery reinstalled the full group.
        assert len(s1.fib[dst.node_id]) == 2
