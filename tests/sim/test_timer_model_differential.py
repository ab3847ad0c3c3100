"""Differential test: soft-deadline RTO timers vs the eager oracle.

The oracle is :class:`tests.sim.oracles.EagerDctcpSender`, a test-local
subclass whose ``_arm_rto`` cancels and re-pushes the timer on every
ACK, handed in through the apps' ``sender_cls=`` parameter.

The soft-deadline model's contract (ISSUE 4) is *exact* equivalence
with the cancel-and-reschedule-per-ACK reference: identical
retransmission and delivery traces — times, flow ids, sequence numbers,
CE/ECE bits — identical timeout counts, and identical queue counters.
The deadline is an absolute simulated time under both models, so a
timeout fires at the same float instant whether the heap event was
re-pushed on every ACK or lazily re-armed when an early fire noticed
the deadline had moved.

Scenarios are chosen to exercise the timer paths that matter: the
Figure 14/15 incast collapse (full-window losses, real 200 ms-class
retransmission timeouts, back-to-back re-arms during go-back-N) and a
multi-flow DCTCP dumbbell (heavy ACK-clocked deadline movement with the
timer never expiring — the common case the fast lane optimises).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.marking import SingleThresholdMarker
from repro.experiments.fig14_incast import (
    TESTBED_INITIAL_CWND,
    TESTBED_START_JITTER,
)
from repro.experiments.protocols import dctcp_testbed, dt_dctcp_testbed
from repro.sim.apps.bulk import launch_bulk_flows
from repro.sim.apps.incast import FanInApp
from repro.sim.packet_log import PacketLogger
from repro.sim.topology import dumbbell, paper_testbed
from tests.sim.oracles import TIMER_SENDERS

KB = 1024


def _normalised_records(log: PacketLogger):
    """Delivery records with flow ids rebased to zero.

    Flow ids come from a process-global counter, so two runs of the same
    scenario see different absolute ids; rebasing makes them positional.
    """
    if not log.records:
        return []
    base = min(r.flow_id for r in log.records)
    return [dataclasses.replace(r, flow_id=r.flow_id - base) for r in log.records]


def _run_incast(protocol, model: str, n_flows: int):
    """One Figure 14/15-style incast query; everything observable."""
    testbed = paper_testbed(protocol.marker_factory, bandwidth_bps=1e9)
    bottleneck_iface = testbed.network.interface_between(
        testbed.core_switch.node_id, testbed.aggregator.node_id
    )
    log = PacketLogger().attach(bottleneck_iface)
    app = FanInApp(
        testbed.aggregator,
        testbed.workers,
        n_flows=n_flows,
        bytes_per_flow=64 * KB,
        n_queries=1,
        sender_cls=TIMER_SENDERS[model],
        initial_cwnd=TESTBED_INITIAL_CWND,
        start_jitter=TESTBED_START_JITTER,
        on_done=testbed.sim.stop,
    )
    app.start()
    testbed.sim.run(until=60.0)
    raw = testbed.bottleneck_queue.stats
    stats = {field: getattr(raw, field) for field in raw.__slots__}
    per_query = [
        (r.completion_time, r.timeouts, r.retransmits) for r in app.results
    ]
    total_timeouts = sum(r.timeouts for r in app.results)
    return _normalised_records(log), stats, per_query, total_timeouts


def _run_dumbbell(model: str, n_flows: int, duration: float):
    """Multi-flow DCTCP dumbbell: ACK-heavy, timers armed constantly."""
    network = dumbbell(
        n_flows, lambda: SingleThresholdMarker.from_threshold(40.0)
    )
    bottleneck_iface = network.network.interface_between(
        network.switch.node_id, network.receiver.node_id
    )
    log = PacketLogger().attach(bottleneck_iface)
    flows = launch_bulk_flows(network, sender_cls=TIMER_SENDERS[model])
    network.sim.run(until=duration)
    per_flow = [
        (f.sender.packets_sent, f.sender.timeouts, f.receiver.packets_received)
        for f in flows
    ]
    return _normalised_records(log), per_flow


@pytest.mark.parametrize("make_protocol", [dctcp_testbed, dt_dctcp_testbed])
def test_incast_collapse_traces_identical(make_protocol):
    """Fig 14/15 collapse point: both models, bit-identical traces."""
    protocol = make_protocol()
    reference = _run_incast(protocol, "eager", n_flows=45)
    fast = _run_incast(protocol, "soft-deadline", n_flows=45)

    ref_records, ref_stats, ref_queries, ref_timeouts = reference
    fast_records, fast_stats, fast_queries, fast_timeouts = fast

    # 45 synchronized 64 KB responses overflow the 128 KB buffer: real
    # RTOs must fire or the scenario is not exercising the timeout path.
    assert ref_timeouts > 0, "scenario produced no timeouts"
    assert len(ref_records) > 500, "scenario too small to be meaningful"
    assert fast_timeouts == ref_timeouts
    assert fast_records == ref_records
    assert fast_stats == ref_stats
    assert fast_queries == ref_queries


def test_dumbbell_traces_identical():
    reference = _run_dumbbell("eager", n_flows=5, duration=0.004)
    fast = _run_dumbbell("soft-deadline", n_flows=5, duration=0.004)

    assert len(reference[0]) > 500, "scenario too small to be meaningful"
    assert fast == reference


def test_soft_deadline_schedules_fewer_timer_events():
    """Same simulated incast, strictly less heap traffic."""

    def pushes(model):
        testbed = paper_testbed(
            dctcp_testbed().marker_factory, bandwidth_bps=1e9
        )
        app = FanInApp(
            testbed.aggregator,
            testbed.workers,
            n_flows=12,
            bytes_per_flow=64 * KB,
            n_queries=1,
            sender_cls=TIMER_SENDERS[model],
            initial_cwnd=TESTBED_INITIAL_CWND,
            start_jitter=TESTBED_START_JITTER,
            on_done=testbed.sim.stop,
        )
        app.start()
        testbed.sim.run(until=60.0)
        return testbed.sim.events_scheduled

    assert pushes("soft-deadline") < pushes("eager")
