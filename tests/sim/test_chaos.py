"""Unit tests for the deterministic fault-injection layer.

Everything here is seed-and-spec determinism: the chaos module's RNG
primitives match their published reference outputs, schedules validate
and round-trip through their JSON spec, and the per-interface hooks
implement the documented outage/loss/jitter/ECN semantics packet by
packet.  The trace-level guarantees (zero-fault byte identity, kernel
independence) live in ``test_chaos_differential.py``.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.sim.chaos import (
    DIRECTIONS,
    ECN_MODES,
    ChaosSchedule,
    Splitmix64,
    derive_stream_seed,
)
from repro.sim.packet import Packet
from repro.sim.queues import FifoQueue
from repro.sim.topology import Network, dumbbell
from repro.core.marking import NullMarker


def two_hosts(prop_delay: float = 1e-3, bandwidth: float = 1e9):
    """Two directly wired hosts — the minimal chaos target.

    A large propagation delay keeps packets on the wire long enough for
    outage windows to cut them mid-flight.
    """
    net = Network()
    a = net.add_host("a")
    b = net.add_host("b")
    net.connect(
        a, b, bandwidth, prop_delay,
        queue_a_to_b=FifoQueue(1e6, name="a-up"),
        queue_b_to_a=FifoQueue(1e6, name="b-up"),
    )
    iface = net.interface_between(a.node_id, b.node_id)
    return net, a, b, iface


def send_at(net, host, t: float, flow_id: int = 0, seq: int = 0):
    net.sim.schedule_at(
        t,
        lambda: host.send(
            Packet(
                flow_id=flow_id,
                src=host.node_id,
                dst=(1 - host.node_id) if host.node_id < 2 else 0,
                seq=seq,
                size_bytes=1500,
            )
        ),
    )


class TestSplitmix64:
    def test_matches_published_reference_stream(self):
        # The canonical splitmix64 test vector: seed 0 produces
        # 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F.
        rng = Splitmix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_float_stream_pinned(self):
        rng = Splitmix64(0)
        assert rng.next_float() == 0.8833108082136426
        assert rng.next_float() == 0.43152799704850997

    def test_floats_in_unit_interval(self):
        rng = Splitmix64(0xDEADBEEF)
        draws = [rng.next_float() for _ in range(1000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        # and not degenerate
        assert len(set(draws)) == 1000

    def test_same_seed_same_stream(self):
        x, y = Splitmix64(42), Splitmix64(42)
        assert [x.next_u64() for _ in range(16)] == [
            y.next_u64() for _ in range(16)
        ]

    def test_seed_masked_to_64_bits(self):
        assert Splitmix64(1 << 64).next_u64() == Splitmix64(0).next_u64()


class TestDeriveStreamSeed:
    def test_deterministic_pinned_values(self):
        assert derive_stream_seed(7, "loss", "a->b") == 13393450451938562591
        assert (
            derive_stream_seed(1234567890123456789, "jitter", "leaf0->spine1")
            == 7090513753829520631
        )

    def test_labels_and_order_matter(self):
        seeds = {
            derive_stream_seed(1, "loss", "a->b"),
            derive_stream_seed(1, "jitter", "a->b"),
            derive_stream_seed(1, "loss", "b->a"),
            derive_stream_seed(1, "a->b", "loss"),
            derive_stream_seed(2, "loss", "a->b"),
        }
        assert len(seeds) == 5

    def test_fits_in_64_bits(self):
        for seed in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= derive_stream_seed(seed, "x") < 2**64


class TestScheduleBuilders:
    def test_builders_chain(self):
        sched = (
            ChaosSchedule(seed=3)
            .outage("a", "b", t0=0.1, duration=0.05)
            .loss("a", "b", rate=0.01)
            .jitter("a", "b", amplitude=1e-3)
            .ecn_blackhole("a", "b", t0=0.0, duration=1.0)
            .ecn_storm("a", "b", t0=2.0, duration=1.0)
        )
        assert len(sched) == 5
        assert [f.kind for f in sched.faults] == [
            "outage", "loss", "jitter", "ecn", "ecn",
        ]

    def test_flap_train_expands_to_outages(self):
        sched = ChaosSchedule(seed=0).flap_train(
            "a", "b", t0=1.0, period=0.5, down_time=0.1, count=3
        )
        windows = [(f.t0, f.t1) for f in sched.faults]
        assert windows == [(1.0, 1.1), (1.5, 1.6), (2.0, 2.1)]
        assert all(f.kind == "outage" for f in sched.faults)

    @pytest.mark.parametrize("build", [
        lambda s: s.outage("a", "b", t0=0.0, duration=0.0),
        lambda s: s.outage("a", "b", t0=-0.1, duration=0.1),
        lambda s: s.outage("a", "b", t0=0.0, duration=0.1, direction="up"),
        lambda s: s.flap_train("a", "b", t0=0.0, period=1.0,
                               down_time=1.0, count=2),
        lambda s: s.flap_train("a", "b", t0=0.0, period=1.0,
                               down_time=0.1, count=0),
        lambda s: s.loss("a", "b", rate=0.0),
        lambda s: s.loss("a", "b", rate=1.5),
        lambda s: s.jitter("a", "b", amplitude=0.0),
        lambda s: s.ecn_blackhole("a", "b", t0=0.0, duration=-1.0),
    ])
    def test_invalid_faults_rejected(self, build):
        with pytest.raises(ValueError):
            build(ChaosSchedule(seed=0))

    def test_direction_registry(self):
        assert DIRECTIONS == ("both", "a->b", "b->a")
        assert ECN_MODES == ("clear", "mark")


class TestSpecRoundTrip:
    def sched(self):
        return (
            ChaosSchedule(seed=99)
            .outage("leaf0", "spine0", t0=0.01, duration=0.005,
                    direction="a->b")
            .loss("h0-0", "leaf0", rate=0.02, t0=0.1, t1=0.2)
            .loss("h0-1", "leaf0", rate=0.01)          # open-ended window
            .jitter("leaf1", "spine0", amplitude=2e-3, direction="b->a")
            .ecn_blackhole("leaf0", "spine1", t0=0.0, duration=0.5)
            .ecn_storm("leaf1", "spine1", t0=1.0, duration=0.5)
        )

    def test_round_trip_is_identity(self):
        spec = self.sched().to_spec()
        assert ChaosSchedule.from_spec(spec).to_spec() == spec

    def test_spec_json_serialisable(self):
        spec = self.sched().to_spec()
        # math.inf survives a Python-json round trip as Infinity.
        assert json.loads(json.dumps(spec))["seed"] == 99
        open_ended = spec["faults"][2]
        assert open_ended["t1"] == math.inf

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            ChaosSchedule.from_spec({
                "seed": 0,
                "faults": [{"kind": "gamma-ray", "a": "a", "b": "b",
                            "t0": 0.0, "t1": 1.0}],
            })


class TestInstall:
    def test_unknown_node_name_lists_known_nodes(self):
        net, _, _, _ = two_hosts()
        sched = ChaosSchedule(seed=0).outage("a", "zz", t0=0.0, duration=1.0)
        with pytest.raises(ValueError, match="unknown node 'zz'"):
            sched.install(net)

    def test_install_after_traffic_rejected(self):
        net, a, _, _ = two_hosts()
        send_at(net, a, 0.0)
        net.sim.run(until=0.1)
        sched = ChaosSchedule(seed=0).outage("a", "b", t0=1.0, duration=1.0)
        with pytest.raises(RuntimeError, match="before the simulation"):
            sched.install(net)

    def test_empty_schedule_installs_nothing(self):
        net, _, _, iface = two_hosts()
        model_before = iface.model
        hook_before = iface.queue.drain_hook
        controller = ChaosSchedule(seed=0).install(net)
        assert controller.hooks == []
        assert iface.chaos is None
        assert iface.model == model_before
        assert iface.queue.drain_hook is hook_before
        assert net.sim.pending_events == 0  # no link-state events scheduled

    def test_targeted_interfaces_forced_two_event(self):
        net, a, b, iface = two_hosts()
        back = net.interface_between(b.node_id, a.node_id)
        ChaosSchedule(seed=0).jitter("a", "b", amplitude=1e-3).install(net)
        assert iface.model == "two-event"
        assert iface.queue.drain_hook is None
        assert iface.chaos is not None
        # direction="both" hooks the reverse interface too
        assert back.model == "two-event"
        assert back.chaos is not None

    def test_directed_fault_hooks_one_side_only(self):
        net, a, b, iface = two_hosts()
        back = net.interface_between(b.node_id, a.node_id)
        ChaosSchedule(seed=0).loss(
            "a", "b", rate=0.5, direction="a->b"
        ).install(net)
        assert iface.chaos is not None
        assert back.chaos is None

    def test_one_hook_per_interface_across_faults(self):
        net, _, _, iface = two_hosts()
        controller = (
            ChaosSchedule(seed=0)
            .loss("a", "b", rate=0.1, direction="a->b")
            .jitter("a", "b", amplitude=1e-3, direction="a->b")
            .outage("a", "b", t0=1.0, duration=0.5, direction="a->b")
            .install(net)
        )
        assert len(controller.hooks) == 1
        hook = controller.hooks[0]
        assert hook.interface is iface
        assert hook.loss_windows and hook.jitter_windows

    def test_loss_streams_differ_per_interface(self):
        net, _, _, _ = two_hosts()
        controller = ChaosSchedule(seed=5).loss("a", "b", rate=0.5).install(net)
        rngs = [hook.loss_rng for hook in controller.hooks]
        assert len(rngs) == 2
        assert rngs[0].next_u64() != rngs[1].next_u64()


class TestOutageSemantics:
    def run_outage(self, t0: float, duration: float, sends):
        net, a, b, iface = two_hosts(prop_delay=1e-3)
        controller = (
            ChaosSchedule(seed=0)
            .outage("a", "b", t0=t0, duration=duration, direction="a->b")
            .install(net)
        )
        for i, t in enumerate(sends):
            send_at(net, a, t, seq=i)
        net.sim.run(until=1.0)
        return controller.hooks[0], b

    def test_admission_drop_inside_window(self):
        # tx time 12 us + 1 ms wire; sent mid-outage -> dropped at admission
        hook, b = self.run_outage(0.010, 0.010, sends=[0.012])
        assert hook.send_drops == 1
        assert hook.wire_drops == 0
        assert b.packets_received == 0

    def test_wire_cut_destroys_in_flight_packet(self):
        # Sent before the outage, delivery instant (~1.012 ms later)
        # falls inside the window: the wire ate it.
        hook, b = self.run_outage(0.0005, 0.002, sends=[0.0])
        assert hook.wire_drops == 1
        assert hook.send_drops == 0
        assert b.packets_received == 0

    def test_delivery_resumes_after_window(self):
        hook, b = self.run_outage(0.010, 0.010, sends=[0.0, 0.012, 0.030])
        assert b.packets_received == 2
        assert hook.dropped == 1

    def test_overlapping_outages_nest(self):
        net, a, b, _ = two_hosts(prop_delay=1e-6)
        controller = (
            ChaosSchedule(seed=0)
            .outage("a", "b", t0=0.010, duration=0.020, direction="a->b")
            .outage("a", "b", t0=0.020, duration=0.020, direction="a->b")
            .install(net)
        )
        hook = controller.hooks[0]
        # Inside the overlap both outages hold the link down; it comes
        # back only when the *second* one lifts at t=0.040.
        send_at(net, a, 0.032, seq=0)   # first outage over, second active
        send_at(net, a, 0.045, seq=1)   # both lifted
        net.sim.run(until=0.1)
        assert hook.send_drops == 1
        assert b.packets_received == 1
        assert hook.down_depth == 0


class TestLossSemantics:
    def test_draws_consumed_only_inside_window(self):
        # Identical traffic, loss window shifted off the traffic: the
        # RNG must not advance outside the window, so the no-overlap run
        # loses nothing and drops are a pure function of (spec, seed).
        def run(window_t0):
            net, a, b, _ = two_hosts(prop_delay=1e-6)
            controller = (
                ChaosSchedule(seed=11)
                .loss("a", "b", rate=0.5, t0=window_t0, t1=window_t0 + 0.010,
                      direction="a->b")
                .install(net)
            )
            for i in range(50):
                send_at(net, a, 0.001 + i * 1e-4, seq=i)
            net.sim.run(until=1.0)
            return controller.hooks[0].loss_drops, b.packets_received

        drops_hit, received_hit = run(0.0)
        drops_miss, received_miss = run(10.0)
        assert drops_miss == 0 and received_miss == 50
        assert drops_hit > 0 and received_hit == 50 - drops_hit

    def test_loss_fraction_tracks_rate(self):
        net, a, _, _ = two_hosts(prop_delay=1e-6)
        controller = ChaosSchedule(seed=3).loss(
            "a", "b", rate=0.3, direction="a->b"
        ).install(net)
        n = 2000
        for i in range(n):
            send_at(net, a, 0.001 + i * 1e-5, seq=i)
        net.sim.run(until=1.0)
        assert controller.hooks[0].loss_drops == pytest.approx(
            n * 0.3, rel=0.15
        )

    def test_same_seed_same_drops(self):
        def run():
            net, a, _, _ = two_hosts(prop_delay=1e-6)
            controller = ChaosSchedule(seed=21).loss(
                "a", "b", rate=0.25, direction="a->b"
            ).install(net)
            for i in range(200):
                send_at(net, a, 0.001 + i * 1e-5, seq=i)
            net.sim.run(until=1.0)
            return controller.hooks[0].loss_drops

        assert run() == run()


class TestJitterSemantics:
    def test_jitter_delays_delivery_within_amplitude(self):
        from repro.sim.packet_log import PacketLogger

        amplitude = 5e-4
        net, a, b, iface = two_hosts(prop_delay=1e-3)
        ChaosSchedule(seed=2).jitter(
            "a", "b", amplitude=amplitude, direction="a->b"
        ).install(net)
        log = PacketLogger().attach(iface)
        send_at(net, a, 0.0)
        net.sim.run(until=1.0)
        tx = 1500 * 8 / 1e9
        base = tx + 1e-3
        assert len(log.records) == 1
        arrival = log.records[0].time
        assert base < arrival < base + amplitude

    def test_fifo_clamp_never_reorders(self):
        from repro.sim.packet_log import PacketLogger

        net, a, b, iface = two_hosts(prop_delay=1e-3)
        ChaosSchedule(seed=8).jitter(
            "a", "b", amplitude=2e-3, direction="a->b"
        ).install(net)
        log = PacketLogger().attach(iface)
        # Back-to-back packets: with 2 ms amplitude on a 12 us tx time,
        # unclamped draws would reorder massively.
        for i in range(100):
            send_at(net, a, i * 1.3e-5, seq=i)
        net.sim.run(until=1.0)
        seqs = [r.seq for r in log.records]
        times = [r.time for r in log.records]
        assert len(seqs) == 100
        assert seqs == sorted(seqs)
        assert times == sorted(times)


class TestEcnWindows:
    def drive(self, mode_builder, ecn_capable=True, preset_ce=False):
        from repro.sim.packet_log import PacketLogger

        net, a, b, iface = two_hosts(prop_delay=1e-6)
        controller = mode_builder(ChaosSchedule(seed=0)).install(net)
        log = PacketLogger().attach(iface)

        def fire():
            packet = Packet(
                flow_id=0, src=a.node_id, dst=b.node_id, seq=0,
                size_bytes=1500, ecn_capable=ecn_capable,
            )
            packet.ce = preset_ce
            a.send(packet)

        net.sim.schedule_at(0.001, fire)
        net.sim.run(until=1.0)
        return [r.ce for r in log.records], controller.hooks[0]

    def test_blackhole_strips_ce(self):
        delivered, hook = self.drive(
            lambda s: s.ecn_blackhole("a", "b", t0=0.0, duration=1.0,
                                      direction="a->b"),
            preset_ce=True,
        )
        assert delivered == [False]
        assert hook.ecn_mangled == 1

    def test_storm_marks_ect_packets(self):
        delivered, hook = self.drive(
            lambda s: s.ecn_storm("a", "b", t0=0.0, duration=1.0,
                                  direction="a->b"),
        )
        assert delivered == [True]
        assert hook.ecn_mangled == 1

    def test_storm_leaves_non_ect_alone(self):
        delivered, hook = self.drive(
            lambda s: s.ecn_storm("a", "b", t0=0.0, duration=1.0,
                                  direction="a->b"),
            ecn_capable=False,
        )
        assert delivered == [False]
        assert hook.ecn_mangled == 0

    def test_window_boundaries_respected(self):
        delivered, hook = self.drive(
            lambda s: s.ecn_storm("a", "b", t0=0.5, duration=0.1,
                                  direction="a->b"),
        )
        assert delivered == [False]  # delivered at ~1 ms, window at 0.5 s
        assert hook.ecn_mangled == 0


class TestControllerStats:
    def test_stats_aggregate_all_causes(self):
        net, a, _, _ = two_hosts(prop_delay=1e-6)
        controller = (
            ChaosSchedule(seed=1)
            .outage("a", "b", t0=0.0, duration=0.010, direction="a->b")
            .loss("a", "b", rate=1.0, t0=0.010, t1=0.020, direction="a->b")
            .install(net)
        )
        send_at(net, a, 0.005, seq=0)   # outage: admission drop
        send_at(net, a, 0.015, seq=1)   # loss window at rate 1.0
        net.sim.run(until=1.0)
        assert controller.stats() == {
            "send_drops": 1,
            "loss_drops": 1,
            "wire_drops": 0,
            "ecn_mangled": 0,
        }
        assert controller.packets_dropped == 2


class TestDumbbellIntegration:
    def test_outage_on_bottleneck_then_recovery(self):
        from repro.sim.apps.bulk import launch_bulk_flows
        from repro.sim.tcp.sender import DctcpSender

        network = dumbbell(2, lambda: NullMarker(), rtt=1e-4)
        controller = (
            ChaosSchedule(seed=0)
            .outage("switch", "client", t0=0.002, duration=0.001,
                    direction="a->b")
            .install(network.network)
        )
        flows = launch_bulk_flows(
            network, sender_cls=DctcpSender, min_rto=1e-3
        )
        network.sim.run(until=0.02)
        assert controller.packets_dropped > 0
        # Senders survived the outage and kept delivering afterwards.
        for flow in flows:
            assert flow.receiver.packets_received > 0
        total_timeouts = sum(f.sender.timeouts for f in flows)
        assert total_timeouts > 0  # the outage actually hurt
