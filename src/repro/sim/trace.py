"""Measurement probes: queue sampler, alpha sampler, event-exact queue.

Probes are periodic self-rescheduling events, matching how ns-2
experiments sample state.  They are cheap (one event per sample period,
no per-packet cost) and return plain numpy arrays for the statistics
layer.

Storage: probes accumulate into :class:`repro.stats.ChunkedSeries`
(``array('d')`` chunks, 8 bytes/sample) instead of Python lists.

The event-exact :class:`TrackedFifoQueue`'s per-packet hot path appends
a ``(time, length)`` pair onto a small interleaved Python list (the
cheapest append there is) and every ``_FOLD_EVENTS`` events the buffer
is folded — one vectorised numpy pass — into the chunked trace.  That
keeps the per-event cost below half of what the plain list-of-floats
design paid.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.queues import FifoQueue
from repro.sim.tcp.sender import DctcpSender
from repro.stats.streaming import ChunkedSeries

__all__ = [
    "QueueMonitor",
    "AlphaMonitor",
    "TrackedFifoQueue",
]

#: Occupancy events buffered between vectorised folds (64k floats).
_FOLD_EVENTS = 32768


class QueueMonitor:
    """Samples a queue's occupancy (packets and bytes) periodically."""

    def __init__(self, sim: Simulator, queue: FifoQueue, interval: float):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.queue = queue
        self.interval = interval
        self.times = ChunkedSeries()
        self.lengths = ChunkedSeries()
        self.byte_lengths = ChunkedSeries()
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
        self.byte_lengths.append(self.queue.len_bytes)
        self.sim.post(self.interval, self._sample)

    def series(self, after: float = 0.0) -> np.ndarray:
        """Queue lengths (packets) sampled at or after ``after`` seconds."""
        t = self.times.to_numpy()
        q = self.lengths.to_numpy()
        return q[t >= after]

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
    buffered pair per packet event.  The complete ``(time, length)``
    trace is retained in chunked ``array('d')`` storage — read it via
    :attr:`event_times` / :attr:`event_lengths`, reduce it with
    :meth:`time_weighted_mean` / :meth:`time_weighted_std` at any
    ``after`` cutoff.
    """

    def __init__(self, sim: Simulator, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._sim = sim
        #: Interleaved ``t0, q0, t1, q1, ...`` staging buffer; folded in
        #: one numpy pass every ``_FOLD_EVENTS`` events.
        self._buf = []
        self._buf_append = self._buf.append
        self._left = _FOLD_EVENTS
        self._times = ChunkedSeries()
        self._lengths = ChunkedSeries()
        self._buf_append(sim.now)
        self._buf_append(0.0)
        self._left -= 1

    def _fold(self) -> None:
        """Flush the staging buffer into the chunked trace."""
        buf = self._buf
        if buf:
            pairs = np.asarray(buf, dtype=float).reshape(-1, 2)
            self._times.extend_numpy(pairs[:, 0])
            self._lengths.extend_numpy(pairs[:, 1])
            buf.clear()
        self._left = _FOLD_EVENTS

    def enqueue(self, packet) -> bool:
        # Base-class call by name and direct ``_sim._now`` access: this
        # method runs once per packet arrival at the bottleneck, and
        # super()/property dispatch measurably dominates it.
        admitted = FifoQueue.enqueue(self, packet)
        # Drops are recorded too: the occupancy observation still
        # happened even though it did not change.
        app = self._buf_append
        app(self._sim._now)
        app(len(self._queue))
        left = self._left - 1
        self._left = left
        if not left:
            self._fold()
        return admitted

    def dequeue(self, at_time=None):
        # A busy-until interface replays deferred dequeues with their
        # true transmission-start time; record that instant, not the
        # (possibly later) moment of observation, so the event-exact
        # series matches the eager two-event schedule sample for sample.
        packet = FifoQueue.dequeue(self, at_time)
        if packet is not None:
            app = self._buf_append
            app(self._sim._now if at_time is None else at_time)
            app(len(self._queue))
            left = self._left - 1
            self._left = left
            if not left:
                self._fold()
        return packet

    # -- trace access --------------------------------------------------

    @property
    def event_times(self) -> ChunkedSeries:
        """Event timestamps."""
        self._fold()
        return self._times

    @property
    def event_lengths(self) -> ChunkedSeries:
        """Queue length after each event."""
        self._fold()
        return self._lengths

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
        self._fold()
        t = self._times.to_numpy()
        q = self._lengths.to_numpy()
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
        self.times = ChunkedSeries()
        self.mean_alphas = ChunkedSeries()
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
