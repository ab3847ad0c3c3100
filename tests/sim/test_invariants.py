"""Tests for the runtime invariant watchdog.

Two halves: healthy simulations audit clean at every instant (under both
link models, with and without active faults), and deliberately injected
corruption — stolen packets, cooked counters, disarmed RTO timers — is
caught and named.  The second half is the
watchdog's reason to exist: a checker that never fires on real bugs is
just overhead.
"""

from __future__ import annotations

import pytest

from repro.core.marking import SingleThresholdMarker
from repro.sim.apps.bulk import launch_bulk_flows
from repro.sim.chaos import ChaosSchedule
from repro.sim.invariants import (
    InvariantViolation,
    InvariantWatchdog,
    audit_network,
    held_by_interface,
)
from repro.sim.tcp.sender import DctcpSender
from repro.sim.topology import dumbbell
from tests.sim.oracles import pin_link_model


def _marker():
    return SingleThresholdMarker.from_threshold(40.0)


def _busy_dumbbell(n_flows: int = 4, link: str = "busy-until"):
    network = dumbbell(n_flows, _marker)
    pin_link_model(network.network, link)
    watchdog = InvariantWatchdog(network.network)
    flows = launch_bulk_flows(network, sender_cls=DctcpSender)
    return network, watchdog, flows


class TestHealthyRuns:
    @pytest.mark.parametrize("link", ["busy-until", "two-event"])
    def test_periodic_checks_pass_mid_run(self, link):
        network, watchdog, _ = _busy_dumbbell(link=link)
        # Audit every 100 us: checks land mid-busy-period, where the
        # busy-until lane's deferred queue bookkeeping must still
        # balance the ledgers.
        watchdog.start(interval=100e-6)
        network.sim.run(until=0.003)
        watchdog.check()
        assert watchdog.checks_run >= 30
        assert network.sim.events_processed > 1000

    def test_audit_clean_during_active_faults(self):
        network = dumbbell(3, _marker, rtt=1e-4)
        controller = (
            ChaosSchedule(seed=4)
            .outage("switch", "client", t0=0.0005, duration=0.0005,
                    direction="a->b")
            .loss("server0", "switch", rate=0.1, direction="a->b")
            .install(network.network)
        )
        watchdog = InvariantWatchdog(network.network)
        launch_bulk_flows(network, sender_cls=DctcpSender, min_rto=1e-3)
        watchdog.start(interval=100e-6)
        network.sim.run(until=0.004)
        watchdog.check()
        # The faults really fired — conservation held *including* the
        # chaos drop counters, not because nothing happened.
        assert controller.packets_dropped > 0

    def test_custody_accounts_packets_on_the_wire(self):
        network = dumbbell(2, _marker, rtt=4e-3)  # 1 ms per hop
        launch_bulk_flows(network, sender_cls=DctcpSender)
        network.sim.run(until=2.1e-3)  # first packets still propagating
        net = network.network
        assert sum(held_by_interface(i) for i in net.all_interfaces()) > 0
        assert all(held_by_interface(i) >= 0 for i in net.all_interfaces())
        assert audit_network(net) == []


class TestInjectedCorruption:
    def run_briefly(self):
        network, watchdog, flows = _busy_dumbbell()
        network.sim.run(until=0.002)
        return network, watchdog, flows

    def test_stolen_queued_packet_is_caught(self):
        network, watchdog, _ = self.run_briefly()
        queue = network.bottleneck_queue
        assert queue.len_packets > 0, "bottleneck empty; scenario too light"
        # Steal a parked packet without telling the ledgers — the classic
        # conservation bug a refactor of the queue fast path could add.
        queue._queue.popleft()
        with pytest.raises(InvariantViolation) as excinfo:
            watchdog.check()
        message = str(excinfo.value)
        assert "byte gauge" in message
        assert "enqueued-dequeued" in message

    def test_cooked_forwarding_counter_is_caught(self):
        network, watchdog, _ = self.run_briefly()
        network.switch.packets_forwarded += 1
        with pytest.raises(InvariantViolation, match="forwarded"):
            watchdog.check()

    def test_cooked_host_counter_is_caught(self):
        network, watchdog, _ = self.run_briefly()
        network.receiver.packets_received += 1
        with pytest.raises(InvariantViolation, match="packets_received"):
            watchdog.check()

    def test_negative_custody_is_caught(self):
        network, watchdog, _ = self.run_briefly()
        iface = network.network.interface_between(
            network.switch.node_id, network.receiver.node_id
        )
        iface.packets_delivered += 10_000
        with pytest.raises(InvariantViolation, match="negative custody"):
            watchdog.check()

    def test_wedged_sender_is_caught(self):
        network, watchdog, flows = self.run_briefly()
        victim = next(f.sender for f in flows if f.sender.in_flight > 0)
        # Disarm the RTO timer under outstanding data: the silent-wedge
        # state a mishandled outage would leave behind.
        victim._rto_timer = None
        with pytest.raises(InvariantViolation, match="wedged"):
            watchdog.check()

    def test_clock_regression_is_caught(self):
        network, watchdog, _ = self.run_briefly()
        watchdog._last_now = network.sim.now + 1.0
        with pytest.raises(InvariantViolation, match="clock ran backwards"):
            watchdog.check()


class TestReporting:
    def test_violation_message_lists_every_finding(self):
        exc = InvariantViolation(["first thing", "second thing"], when=0.25)
        message = str(exc)
        assert "2 invariant violation(s) at t=0.25" in message
        assert "first thing" in message and "second thing" in message
        assert exc.violations == ["first thing", "second thing"]
        assert isinstance(exc, AssertionError)

    def test_watchdog_rejects_bad_interval(self):
        network = dumbbell(1, _marker)
        watchdog = InvariantWatchdog(network.network)
        with pytest.raises(ValueError):
            watchdog.start(interval=0.0)
