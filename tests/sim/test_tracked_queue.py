"""Tests for the event-driven tracked queue."""

import pytest

from repro.core.marking import SingleThresholdMarker
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.trace import QueueMonitor, TrackedFifoQueue


def pkt(seq=0, size=1500):
    return Packet(flow_id=1, src=0, dst=1, seq=seq, size_bytes=size)


class TestTrackedFifoQueue:
    def test_records_every_transition(self):
        sim = Simulator()
        q = TrackedFifoQueue(sim, 100_000)
        q.enqueue(pkt(0))
        q.enqueue(pkt(1))
        q.dequeue()
        assert list(q.event_lengths) == [0, 1, 2, 1]

    def test_records_drops_as_observations(self):
        sim = Simulator()
        q = TrackedFifoQueue(sim, 1500)
        q.enqueue(pkt(0))
        q.enqueue(pkt(1))  # dropped
        assert list(q.event_lengths) == [0, 1, 1]

    def test_time_weighted_mean_exact(self):
        sim = Simulator()
        q = TrackedFifoQueue(sim, 100_000)
        # Occupancy 1 for [1, 3), occupancy 0 before and after.
        sim.schedule(1.0, lambda: q.enqueue(pkt(0)))
        sim.schedule(3.0, q.dequeue)
        sim.run()
        # Over [0, 3): 1s at 0, 2s at 1 -> mean 2/3.
        assert q.time_weighted_mean() == pytest.approx(2.0 / 3.0)

    def test_agrees_with_dense_periodic_sampling(self):
        """Event-driven stats match a fine periodic sampler on real
        DCTCP traffic."""
        from repro.sim.apps.bulk import launch_bulk_flows
        from repro.sim.topology import dumbbell

        nw = dumbbell(4, lambda: SingleThresholdMarker.from_threshold(40))
        tracked = TrackedFifoQueue(
            nw.sim,
            nw.bottleneck_queue.capacity_bytes,
            marker=SingleThresholdMarker.from_threshold(40),
        )
        # Swap the bottleneck discipline for the tracked one.
        iface = nw.network.interface_between(
            nw.switch.node_id, nw.receiver.node_id
        )
        iface.queue = tracked
        launch_bulk_flows(nw)
        monitor = QueueMonitor(nw.sim, tracked, interval=2e-6)
        monitor.start()
        nw.sim.run(until=0.01)
        sampled = monitor.series(after=0.004)
        assert tracked.time_weighted_mean(after=0.004) == pytest.approx(
            float(sampled.mean()), rel=0.05
        )
        assert tracked.time_weighted_std(after=0.004) == pytest.approx(
            float(sampled.std()), rel=0.15
        )

    def test_needs_two_events_after_warmup(self):
        sim = Simulator()
        q = TrackedFifoQueue(sim, 100_000)
        with pytest.raises(ValueError):
            q.time_weighted_mean(after=100.0)

    def test_fold_crosses_chunk_boundary(self):
        """A long trace (past any power-of-two growth step of the
        arrays): nothing lost, in order."""
        sim = Simulator()
        q = TrackedFifoQueue(sim, 100_000_000)
        n = 32768 + 500
        for i in range(n):
            sim._now = 1e-6 * (i + 1)
            q.enqueue(pkt(i))
        assert len(q.event_times) == n + 1
        assert list(q.event_lengths) == list(range(n + 1))
        # Occupancy ramps 0..n-1 over n equal holds.
        assert q.time_weighted_mean() == pytest.approx((n - 1) / 2)
