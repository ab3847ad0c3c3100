"""Measurement probes: queue sampler, alpha sampler, event-exact queue.

Probes are periodic self-rescheduling events, matching how ns-2
experiments sample state.  They are cheap (one event per sample period,
no per-packet cost) and return plain numpy arrays for the statistics
layer.

Storage: every probe accumulates into :class:`Series` — one
``array('d')``, 8 bytes a sample.  The longest series any shipped
workload holds is 500 000 samples (4 MB), so there is nothing to chunk.
"""

from __future__ import annotations

from array import array
from typing import Sequence, Tuple

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.queues import FifoQueue
from repro.sim.tcp.sender import DctcpSender

__all__ = [
    "Series",
    "QueueMonitor",
    "AlphaMonitor",
    "TrackedFifoQueue",
]


class Series(array):
    """An append-only ``array('d')`` the statistics layer reads as numpy."""

    __slots__ = ()

    def __new__(cls) -> "Series":
        return super().__new__(cls, "d")

    def to_numpy(self) -> np.ndarray:
        """The samples so far, as a copy: an array that exports its
        buffer cannot grow, and the probe keeps appending."""
        return np.array(self)


class QueueMonitor:
    """Samples a queue's occupancy in packets periodically."""

    def __init__(self, sim: Simulator, queue: FifoQueue, interval: float):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.queue = queue
        self.interval = interval
        self.times = Series()
        self.lengths = Series()
        self._running = False

    def start(self, delay: float = 0.0) -> None:
        if self._running:
            raise RuntimeError("monitor already started")
        self._running = True
        self.sim.post(delay, self._sample)

    def stop(self) -> None:
        self._running = False

    def _sample(self) -> None:
        if not self._running:
            return
        self.times.append(self.sim.now)
        self.lengths.append(self.queue.len_packets)
        self.sim.post(self.interval, self._sample)

    def series(self, after: float = 0.0) -> np.ndarray:
        """Queue lengths (packets) sampled at or after ``after`` seconds."""
        t = self.times.to_numpy()
        q = self.lengths.to_numpy()
        return q[t >= after]

    def steady_state(self, warmup: float) -> Tuple[float, float]:
        """``(mean, std)`` of the lengths sampled at or after ``warmup``.

        The one reduction behind every reported queue statistic.  A
        warm-up that discards every sample is a ``ValueError`` — not a
        ``nan`` under numpy warnings, and not a ``0.0`` that reads as an
        empty queue.
        """
        queue = self.series(after=warmup)
        if not len(queue):
            raise ValueError(
                f"a warm-up of {warmup:g} s discards every queue sample: "
                f"the run ended at {self.sim.now:g} s and the queue is "
                f"sampled every {self.interval:g} s"
            )
        return float(queue.mean()), float(queue.std())

    def time_series(self, after: float = 0.0):
        """``(times, lengths)`` pair for plotting-style consumers."""
        t = self.times.to_numpy()
        q = self.lengths.to_numpy()
        mask = t >= after
        return t[mask], q[mask]


class TrackedFifoQueue(FifoQueue):
    """A FIFO that logs its occupancy at *every* enqueue/dequeue/drop.

    Periodic sampling (:class:`QueueMonitor`) can alias against the
    oscillation; the event-driven record is exact, at the cost of one
    appended pair per packet event.  The complete ``(time, length)``
    trace is retained — read it via :attr:`event_times` /
    :attr:`event_lengths`, reduce it with :meth:`time_weighted_mean` /
    :meth:`time_weighted_std` at any ``after`` cutoff.
    """

    def __init__(self, sim: Simulator, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._sim = sim
        #: Event timestamps, and the queue length after each event.
        self.event_times = Series()
        self.event_lengths = Series()
        self.event_times.append(sim.now)
        self.event_lengths.append(0.0)

    def enqueue(self, packet) -> bool:
        # Base-class call by name and direct ``_sim._now`` access: this
        # method runs once per packet arrival at the bottleneck, and
        # super()/property dispatch measurably dominates it.
        admitted = FifoQueue.enqueue(self, packet)
        # Drops are recorded too: the occupancy observation still
        # happened even though it did not change.
        self.event_times.append(self._sim._now)
        self.event_lengths.append(len(self._queue))
        return admitted

    def dequeue(self, at_time=None):
        # A busy-until interface replays deferred dequeues with their
        # true transmission-start time; record that instant, not the
        # (possibly later) moment of observation, so the event-exact
        # series matches the eager two-event schedule sample for sample.
        packet = FifoQueue.dequeue(self, at_time)
        if packet is not None:
            self.event_times.append(
                self._sim._now if at_time is None else at_time
            )
            self.event_lengths.append(len(self._queue))
        return packet

    # -- statistics -----------------------------------------------------

    def time_weighted_mean(self, after: float = 0.0) -> float:
        from repro.stats import time_weighted_mean

        t, q = self._series_after(after)
        return time_weighted_mean(t, q)

    def time_weighted_std(self, after: float = 0.0) -> float:
        from repro.stats import time_weighted_std

        t, q = self._series_after(after)
        return time_weighted_std(t, q)

    def _series_after(self, after: float):
        t = self.event_times.to_numpy()
        q = self.event_lengths.to_numpy()
        mask = t >= after
        if int(mask.sum()) < 2:
            raise ValueError("not enough queue events after the warmup")
        return t[mask], q[mask]


class AlphaMonitor:
    """Samples the mean DCTCP ``alpha`` across a set of senders.

    Figure 12 reports the average congestion-extent estimate; senders
    that are not DCTCP (baselines) are skipped.
    """

    def __init__(
        self, sim: Simulator, senders: Sequence[DctcpSender], interval: float
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.senders = [s for s in senders if isinstance(s, DctcpSender)]
        self.interval = interval
        self.times = Series()
        self.mean_alphas = Series()
        self._running = False

    def start(self, delay: float = 0.0) -> None:
        if self._running:
            raise RuntimeError("monitor already started")
        self._running = True
        self.sim.post(delay, self._sample)

    def stop(self) -> None:
        self._running = False

    def _sample(self) -> None:
        if not self._running:
            return
        if self.senders:
            self.times.append(self.sim.now)
            self.mean_alphas.append(
                sum(s.alpha for s in self.senders) / len(self.senders)
            )
        self.sim.post(self.interval, self._sample)

    def series(self, after: float = 0.0) -> np.ndarray:
        t = self.times.to_numpy()
        a = self.mean_alphas.to_numpy()
        return a[t >= after]
