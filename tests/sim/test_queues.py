"""Unit tests for the FIFO queue disciplines."""

import pytest

from repro.core.marking import (
    DoubleThresholdMarker,
    NullMarker,
    SingleThresholdMarker,
)
from repro.sim.packet import Packet
from repro.sim.queues import FifoQueue


def make_packet(size=1500, ecn=True, flow=1, seq=0):
    return Packet(
        flow_id=flow, src=0, dst=1, seq=seq, size_bytes=size, ecn_capable=ecn
    )


class TestFifoBasics:
    def test_starts_empty(self):
        q = FifoQueue(10_000)
        assert q.is_empty
        assert q.len_packets == 0
        assert q.len_bytes == 0

    def test_enqueue_dequeue_fifo_order(self):
        q = FifoQueue(100_000)
        packets = [make_packet(seq=i) for i in range(5)]
        for p in packets:
            assert q.enqueue(p)
        out = [q.dequeue() for _ in range(5)]
        assert [p.seq for p in out] == [0, 1, 2, 3, 4]

    def test_byte_accounting(self):
        q = FifoQueue(100_000)
        q.enqueue(make_packet(size=1500))
        q.enqueue(make_packet(size=40))
        assert q.len_bytes == 1540
        q.dequeue()
        assert q.len_bytes == 40

    def test_dequeue_empty_returns_none(self):
        assert FifoQueue(1000).dequeue() is None

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FifoQueue(0)


class TestDrops:
    def test_drop_when_full(self):
        q = FifoQueue(3000)  # fits two 1500B packets
        assert q.enqueue(make_packet())
        assert q.enqueue(make_packet())
        assert not q.enqueue(make_packet())
        assert q.stats.dropped == 1
        assert q.len_packets == 2

    def test_small_packet_fits_after_big_drop(self):
        q = FifoQueue(3100)
        q.enqueue(make_packet())
        q.enqueue(make_packet())
        assert not q.enqueue(make_packet())  # 1500 does not fit
        assert q.enqueue(make_packet(size=40))  # ACK still fits

    def test_exact_fit_accepted(self):
        q = FifoQueue(1500)
        assert q.enqueue(make_packet(size=1500))
        assert not q.enqueue(make_packet(size=1))


class TestMarking:
    def test_droptail_never_marks(self):
        q = FifoQueue(100_000, marker=NullMarker())
        for i in range(20):
            q.enqueue(make_packet(seq=i))
        assert q.stats.marked == 0

    def test_single_threshold_marks_above_occupancy(self):
        q = FifoQueue(1_000_000, marker=SingleThresholdMarker.from_threshold(3))
        packets = [make_packet(seq=i) for i in range(6)]
        for p in packets:
            q.enqueue(p)
        # Occupancy seen by arrivals: 0,1,2,3,4,5 -> marks from the 4th on.
        assert [p.ce for p in packets] == [False, False, False, True, True, True]
        assert q.stats.marked == 3

    def test_non_ect_packets_never_marked(self):
        q = FifoQueue(1_000_000, marker=SingleThresholdMarker.from_threshold(0.5))
        p1 = make_packet(ecn=False)
        q.enqueue(make_packet())
        q.enqueue(p1)
        assert not p1.ce
        # A later ECT packet still gets marked.
        p2 = make_packet()
        q.enqueue(p2)
        assert p2.ce

    def test_hysteresis_marker_sees_dropped_arrivals(self):
        """DT-DCTCP's direction tracker must observe every arrival, even
        ones that overflow, or its reference state goes stale."""
        marker = DoubleThresholdMarker.from_thresholds(2, 4)
        q = FifoQueue(3000, marker=marker)  # two packets max
        q.enqueue(make_packet())
        q.enqueue(make_packet())
        assert not q.enqueue(make_packet())  # dropped, but observed
        # Marker saw occupancies 0, 1, 2 (rising into the band -> ON).
        assert marker.marking

    def test_stats_track_all_counters(self):
        q = FifoQueue(3000, marker=SingleThresholdMarker.from_threshold(1))
        q.enqueue(make_packet())
        q.enqueue(make_packet())
        q.enqueue(make_packet())
        q.dequeue()
        s = q.stats
        assert (s.enqueued, s.dequeued, s.dropped, s.marked) == (2, 1, 1, 1)
        assert q.len_bytes == 1500


class TestReset:
    def test_reset_clears_state_and_marker(self):
        marker = DoubleThresholdMarker.from_thresholds(2, 4)
        q = FifoQueue(100_000, marker=marker)
        for i in range(6):
            q.enqueue(make_packet(seq=i))
        assert marker.marking
        q.reset()
        assert q.is_empty
        assert q.stats.enqueued == 0
        assert not marker.marking
