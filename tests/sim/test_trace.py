"""Tests for the measurement probes."""

import numpy as np
import pytest

from repro.core.marking import SingleThresholdMarker
from repro.sim.engine import Simulator
from repro.sim.queues import FifoQueue
from repro.sim.topology import dumbbell
from repro.sim.trace import AlphaMonitor, QueueMonitor
from repro.sim.apps.bulk import launch_bulk_flows
from repro.sim.tcp.sender import DctcpSender


class TestQueueMonitor:
    def test_samples_at_interval(self):
        sim = Simulator()
        q = FifoQueue(10_000)
        mon = QueueMonitor(sim, q, interval=0.1)
        mon.start()
        sim.run(until=1.0)
        assert len(mon.times) == 11  # t = 0.0 .. 1.0
        assert list(mon.times) == pytest.approx(list(np.arange(11) * 0.1))

    def test_records_occupancy_changes(self):
        sim = Simulator()
        q = FifoQueue(1e6)
        from repro.sim.packet import Packet

        def fill():
            for i in range(5):
                q.enqueue(Packet(flow_id=1, src=0, dst=1, seq=i,
                                 size_bytes=1500))

        mon = QueueMonitor(sim, q, interval=0.1)
        mon.start()
        sim.schedule(0.45, fill)
        sim.run(until=1.0)
        series = mon.series()
        assert series[0] == 0
        assert series[-1] == 5

    def test_series_after_filters(self):
        sim = Simulator()
        mon = QueueMonitor(sim, FifoQueue(1000), interval=0.1)
        mon.start()
        sim.run(until=1.0)
        assert len(mon.series(after=0.55)) == 5

    def test_steady_state_is_mean_and_std_after_the_warmup(self):
        sim = Simulator()
        q = FifoQueue(1e6)
        from repro.sim.packet import Packet

        mon = QueueMonitor(sim, q, interval=0.1)
        mon.start()
        for i in range(4):
            sim.schedule(0.55 + 0.1 * i, q.enqueue, Packet(
                flow_id=1, src=0, dst=1, seq=i, size_bytes=1500))
        sim.run(until=1.0)
        # Samples at 0.6 .. 1.0 see 1, 2, 3, 4, 4 packets.
        mean, std = mon.steady_state(0.55)
        assert (mean, std) == (2.8, float(np.std([1, 2, 3, 4, 4])))
        assert mon.steady_state(0.95) == (4.0, 0.0)

    def test_warmup_that_discards_every_sample_is_an_error(self, recwarn):
        """Regression: three behaviours for one mistake - ``nan`` under
        numpy RuntimeWarnings (``simulate``, the queue sweep, the
        buildup stage), a silent ``0.0`` (campaign cells), a
        ``ValueError`` (the tracked queue).  One now: the error, naming
        the warm-up, the horizon and the sample interval."""
        sim = Simulator()
        mon = QueueMonitor(sim, FifoQueue(1000), interval=0.1)
        mon.start()
        sim.run(until=0.25)
        with pytest.raises(ValueError) as error:
            mon.steady_state(0.21)
        for value in ("0.21 s", "0.25 s", "every 0.1 s"):
            assert value in str(error.value)
        assert not recwarn.list

    def test_stop_halts_sampling(self):
        sim = Simulator()
        mon = QueueMonitor(sim, FifoQueue(1000), interval=0.1)
        mon.start()
        sim.schedule(0.35, mon.stop)
        sim.run(until=1.0)
        assert len(mon.times) == 4

    def test_double_start_rejected(self):
        mon = QueueMonitor(Simulator(), FifoQueue(1000), interval=0.1)
        mon.start()
        with pytest.raises(RuntimeError):
            mon.start()

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            QueueMonitor(Simulator(), FifoQueue(1000), interval=0.0)


class TestAlphaMonitor:
    def test_tracks_mean_alpha_of_dctcp_senders(self):
        nw = dumbbell(3, lambda: SingleThresholdMarker.from_threshold(40))
        flows = launch_bulk_flows(nw, sender_cls=DctcpSender)
        mon = AlphaMonitor(nw.sim, [f.sender for f in flows], interval=1e-3)
        mon.start()
        nw.sim.run(until=0.01)
        series = mon.series()
        # 10 or 11 samples depending on float accumulation at the edge.
        assert len(series) in (10, 11)
        assert np.all(series >= 0.0)
        assert np.all(series <= 1.0)

    def test_skips_non_dctcp_senders(self):
        sim = Simulator()
        mon = AlphaMonitor(sim, [object(), object()], interval=0.1)
        mon.start()
        sim.run(until=1.0)
        assert list(mon.mean_alphas) == []

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            AlphaMonitor(Simulator(), [], interval=-1.0)
