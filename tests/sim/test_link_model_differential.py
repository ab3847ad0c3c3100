"""Differential test: busy-until fast lane vs the two-event schedule.

On a dumbbell — no node receives from two ingress links at the same
instant — the fast lane's contract (ISSUE 2) is *exact* equivalence:
same delivery trace — times, flow ids, sequence numbers, CE/ECE bits —
and same queue counters.  These tests run multi-flow DCTCP and DT-DCTCP
dumbbells (synchronized starts, the tie-heavy worst case) with every
interface pinned to either model before traffic
(:meth:`Interface.pin_two_event`) and compare everything observable.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.marking import DoubleThresholdMarker, SingleThresholdMarker
from repro.sim.apps.bulk import launch_bulk_flows
from repro.sim.packet_log import PacketLogger
from repro.sim.tcp.sender import DctcpSender
from repro.sim.topology import dumbbell
from tests.sim.oracles import pin_link_model


def _marker_factory(protocol):
    if protocol == "dctcp":
        return lambda: SingleThresholdMarker.from_threshold(40.0)
    return lambda: DoubleThresholdMarker.from_thresholds(30.0, 50.0)


def _run(protocol: str, model: str, n_flows: int, duration: float):
    """One dumbbell run; returns (delivery records, queue stats, flows)."""
    network = dumbbell(n_flows, _marker_factory(protocol))
    pin_link_model(network.network, model)
    bottleneck_iface = network.network.interface_between(
        network.switch.node_id, network.receiver.node_id
    )
    log = PacketLogger().attach(bottleneck_iface)
    flows = launch_bulk_flows(network, sender_cls=DctcpSender)
    base = min(f.sender.flow_id for f in flows)
    network.sim.run(until=duration)
    assert {i.model for i in network.network.all_interfaces()} == {model}
    # Flow ids come from a process-global counter; normalise so the
    # two runs compare positionally.
    records = [
        dataclasses.replace(r, flow_id=r.flow_id - base)
        for r in log.records
    ]
    raw = network.bottleneck_queue.stats
    stats = {
        field: getattr(raw, field) for field in raw.__slots__
    }
    per_flow = [
        (f.sender.packets_sent, f.sender.timeouts, f.receiver.packets_received)
        for f in flows
    ]
    return records, stats, per_flow


@pytest.mark.parametrize("protocol", ["dctcp", "dt-dctcp"])
def test_delivery_traces_and_queue_stats_identical(protocol):
    reference = _run(protocol, "two-event", n_flows=5, duration=0.004)
    fast = _run(protocol, "busy-until", n_flows=5, duration=0.004)

    ref_records, ref_stats, ref_flows = reference
    fast_records, fast_stats, fast_flows = fast

    assert len(ref_records) > 500, "scenario too small to be meaningful"
    assert fast_records == ref_records
    assert fast_stats == ref_stats
    assert fast_flows == ref_flows


def test_busy_until_halves_heap_traffic():
    """Same simulated run, roughly half the processed events."""
    def events(model):
        network = dumbbell(
            3, lambda: SingleThresholdMarker.from_threshold(40.0)
        )
        pin_link_model(network.network, model)
        launch_bulk_flows(network, sender_cls=DctcpSender)
        network.sim.run(until=0.002)
        return network.sim.events_processed

    reference = events("two-event")
    fast = events("busy-until")
    # Every packet-hop costs the oracle two events (tx-done + delivery)
    # and the fast lane one; timers and app events dilute the exact 2x.
    assert fast < 0.65 * reference
