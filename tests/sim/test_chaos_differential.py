"""Differential guarantees of the fault-injection layer.

Two contracts:

* **Zero-fault transparency** — installing an *empty*
  :class:`ChaosSchedule` is byte-identical to never touching the chaos
  module: same delivery records (times, seq, CE bits), same queue
  counters, same per-flow outcomes, same event count.  Checked on the
  paper's three topology families (fig01-style dumbbell, fig14-style
  incast testbed, leaf–spine fabric), with every link pinned to either
  model and against the eager-timer oracle sender
  (:mod:`tests.sim.oracles`).
* **Seed determinism** — a *non-empty* schedule is a pure function of
  (spec, seed): the same seed replays byte-identically, a different
  seed produces a genuinely different trace.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.marking import SingleThresholdMarker
from repro.sim.apps.bulk import launch_bulk_flows
from repro.sim.apps.incast import FanInApp
from repro.sim.apps.short_flows import ShortFlowGenerator
from repro.sim.chaos import ChaosSchedule
from repro.sim.packet_log import PacketLogger
from repro.sim.tcp.sender import DctcpSender
from repro.sim.topology import dumbbell, leaf_spine, paper_testbed
from tests.sim.oracles import TIMER_SENDERS, pin_link_model

KB = 1024


def _normalised_records(log: PacketLogger):
    if not log.records:
        return []
    base = min(r.flow_id for r in log.records)
    return [
        dataclasses.replace(r, flow_id=r.flow_id - base) for r in log.records
    ]


def _queue_stats(queue):
    raw = queue.stats
    return {field: getattr(raw, field) for field in raw.__slots__}


def _run_dumbbell(schedule, link: str, duration: float = 0.003):
    """Fig01-style dumbbell; ``schedule=None`` never imports chaos state."""
    network = dumbbell(
        4, lambda: SingleThresholdMarker.from_threshold(40.0)
    )
    pin_link_model(network.network, link)
    if schedule is not None:
        schedule.install(network.network)
    iface = network.network.interface_between(
        network.switch.node_id, network.receiver.node_id
    )
    log = PacketLogger().attach(iface)
    flows = launch_bulk_flows(network, sender_cls=DctcpSender)
    network.sim.run(until=duration)
    per_flow = [
        (
            f.sender.packets_sent,
            f.sender.timeouts,
            f.sender.retransmits,
            f.receiver.packets_received,
        )
        for f in flows
    ]
    return (
        _normalised_records(log),
        _queue_stats(iface.queue),
        per_flow,
        network.sim.events_processed,
    )


def _run_incast(schedule, timer: str):
    """Fig14-style incast on the paper testbed."""
    testbed = paper_testbed(
        lambda: SingleThresholdMarker.from_threshold(20.0),
        bandwidth_bps=1e9,
    )
    if schedule is not None:
        schedule.install(testbed.network)
    iface = testbed.network.interface_between(
        testbed.core_switch.node_id, testbed.aggregator.node_id
    )
    log = PacketLogger().attach(iface)
    app = FanInApp(
        testbed.aggregator,
        testbed.workers,
        n_flows=8,
        bytes_per_flow=64 * KB,
        n_queries=1,
        sender_cls=TIMER_SENDERS[timer],
        initial_cwnd=2,
        start_jitter=10e-6,
        on_done=testbed.sim.stop,
    )
    app.start()
    testbed.sim.run(until=1.0)
    per_query = [
        (r.completion_time, r.timeouts, r.retransmits)
        for r in app.results
    ]
    return (
        _normalised_records(log),
        _queue_stats(testbed.bottleneck_queue),
        per_query,
        testbed.sim.events_processed,
    )


def _run_leaf_spine(schedule, duration: float = 0.004):
    """A leaf–spine fabric under Poisson short flows, ECMP active."""
    fabric = leaf_spine(
        3, 2, 2, lambda: SingleThresholdMarker.from_threshold(40.0),
        ecmp_seed=7,
    )
    if schedule is not None:
        schedule.install(fabric.network)
    client = fabric.host(0, 0)
    log = PacketLogger().attach(
        fabric.network.interface_between(
            fabric.leaves[0].node_id, client.node_id
        )
    )
    generators = [
        ShortFlowGenerator(
            fabric.host(leaf_idx, 0),
            client,
            flow_bytes=20 * KB,
            arrival_rate=20_000.0,
            sender_cls=DctcpSender,
            seed=11 + leaf_idx,
        )
        for leaf_idx in (1, 2)
    ]
    for generator in generators:
        generator.start()
    fabric.sim.run(until=duration)
    per_generator = [
        (
            g.flows_started,
            g.flows_completed,
            tuple(g.completion_times),
        )
        for g in generators
    ]
    return (
        _normalised_records(log),
        per_generator,
        fabric.sim.events_processed,
    )


class TestZeroFaultTransparency:
    """An empty schedule may not perturb a single byte of the run."""

    @pytest.mark.parametrize("link", ["busy-until", "two-event"])
    def test_dumbbell_both_link_models(self, link):
        clean = _run_dumbbell(None, link)
        chaosless = _run_dumbbell(ChaosSchedule(seed=123), link)
        assert len(clean[0]) > 300, "scenario too small to be meaningful"
        assert chaosless == clean

    @pytest.mark.parametrize("timer", ["eager", "soft-deadline"])
    def test_incast_both_timer_models(self, timer):
        clean = _run_incast(None, timer)
        chaosless = _run_incast(ChaosSchedule(seed=99), timer)
        assert len(clean[0]) > 300, "scenario too small to be meaningful"
        assert clean[2], "no query completed"
        assert chaosless == clean

    def test_leaf_spine(self):
        clean = _run_leaf_spine(None)
        chaosless = _run_leaf_spine(ChaosSchedule(seed=5))
        assert len(clean[0]) > 100, "scenario too small to be meaningful"
        assert chaosless == clean


def _faulty_schedule(seed: int) -> ChaosSchedule:
    """A schedule exercising every fault kind on the dumbbell."""
    return (
        ChaosSchedule(seed=seed)
        .flap_train("switch", "client", t0=0.0008, period=0.0008,
                    down_time=0.0002, count=2, direction="a->b")
        .loss("server0", "switch", rate=0.05, direction="a->b")
        .jitter("server1", "switch", amplitude=20e-6, direction="a->b")
        .ecn_storm("switch", "client", t0=0.0025, duration=0.0003,
                   direction="a->b")
    )


class TestSeedDeterminism:
    @pytest.mark.parametrize("link", ["busy-until", "two-event"])
    def test_same_spec_and_seed_replays_byte_identically(self, link):
        first = _run_dumbbell(_faulty_schedule(42), link)
        second = _run_dumbbell(_faulty_schedule(42), link)
        assert len(first[0]) > 100, "scenario too small to be meaningful"
        assert second == first

    def test_schedule_survives_spec_round_trip(self):
        original = _faulty_schedule(42)
        rebuilt = ChaosSchedule.from_spec(original.to_spec())
        assert _run_dumbbell(rebuilt, "two-event") == _run_dumbbell(
            original, "two-event"
        )

    def test_different_seed_changes_the_trace(self):
        # Same fault spec, different seed: the loss/jitter streams
        # differ, so the delivery trace must differ too.
        first = _run_dumbbell(_faulty_schedule(42), "two-event")
        second = _run_dumbbell(_faulty_schedule(43), "two-event")
        assert second[0] != first[0]
