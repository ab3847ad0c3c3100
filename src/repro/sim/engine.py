"""Discrete-event simulation kernel.

:class:`Simulator` is a binary heap of ``(time, sequence, ...)`` entries
(the ns-2 scheduler) and one loop that pops them.  The monotonically
increasing sequence number makes ties deterministic — two events
scheduled for the same instant fire in scheduling order.

Scheduler entries are uniform 4-tuples.  The first two fields are
always ``(time, sequence)`` — the total order; the unique sequence
number guarantees comparisons never reach the mixed tail fields:

* cancellable events: ``(time, seq, handle, None)`` — the
  :class:`EventHandle` carries the callback and the cancelled flag;
* flat fire-and-forget events: ``(time, seq, callback, args)`` — the
  tuple *is* the event (``args`` is a tuple, never ``None``, so the
  fourth field discriminates the two shapes).

Cancellation is O(1) lazy deletion: :meth:`EventHandle.cancel` flags the
entry and the loop skips it when popped (the standard heapq idiom).
Retransmission timers cancel and re-arm constantly, so this matters.

Flat event records (``post``)
-----------------------------

Most events never cancel: link deliveries, probe samples, application
ticks.  :meth:`Simulator.post` / :meth:`Simulator.post_at` schedule
such fire-and-forget events as the bare ``(time, seq, callback, args)``
records above, with no :class:`EventHandle` allocated (1.16-1.20x end
to end on the performance ledger against one handle per event;
``docs/SIMULATOR.md``, "Kernel rulings").  Cancellable events
(:meth:`schedule` / :meth:`schedule_at`) return a real
:class:`EventHandle`.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["EventHandle", "Simulator"]

_heappush = heapq.heappush
_heappop = heapq.heappop
_isfinite = math.isfinite
_INF = float("inf")


class EventHandle:
    """Ticket for a scheduled event; lets the owner cancel it."""

    __slots__ = ("time", "callback", "args", "cancelled")

    def __init__(
        self, time: float, callback: Callable[..., None], args: Tuple
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        self.cancelled = True

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.9f}, {state})"


class Simulator:
    """Deterministic discrete-event scheduler with a simulated clock."""

    def __init__(self) -> None:
        self._now = 0.0
        #: Plain int tie-break counter (an ``itertools.count`` costs a
        #: C call per event; ``+= 1`` on an int is cheaper and rewinds
        #: trivially on :meth:`reset`).  Doubles as the count of every
        #: scheduler push ever made (see :attr:`events_scheduled`).
        self._sequence = 0
        self._events_processed = 0
        self._running = False
        self._stop_requested = False
        self._heap: List[Tuple] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events executed so far (skipped cancellations excluded)."""
        return self._events_processed

    @property
    def events_scheduled(self) -> int:
        """Total scheduler pushes ever made — the churn observable the
        timer-model differential tests compare against the eager re-arm."""
        return self._sequence

    @property
    def pending_events(self) -> int:
        """Scheduler entries outstanding, including cancelled ones."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past: delay={delay}")
        # NaN and +inf delays fall through to schedule_at's time guard
        # (NaN compares false against everything, so the check above
        # cannot catch it).
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` at absolute simulated ``time``.

        The returned :class:`EventHandle` supports
        :meth:`~EventHandle.cancel`; events that will never be cancelled
        should prefer :meth:`post_at`.
        """
        if not (self._now <= time < _INF):
            # One chained comparison on the hot path: past times, NaN
            # and +/-inf all fail it and fall to the cold classifier.
            self._raise_bad_time(time)
        handle = EventHandle(time, callback, args)
        seq = self._sequence
        self._sequence = seq + 1
        _heappush(self._heap, (time, seq, handle, None))
        return handle

    def post(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, not cancellable."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past: delay={delay}")
        time = self._now + delay
        # Same body as post_at rather than a call to it: the two-event
        # link posts twice per packet per hop, and the extra frame costs
        # ~5% of spacedc-chaos wall time.
        if not (time < _INF):
            # delay >= 0 guarantees time >= now; only NaN/+inf remain.
            self._raise_bad_time(time)
        seq = self._sequence
        self._sequence = seq + 1
        _heappush(self._heap, (time, seq, callback, args))

    def post_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Fire-and-forget :meth:`schedule_at`: no handle, not cancellable."""
        if not (self._now <= time < _INF):
            self._raise_bad_time(time)
        seq = self._sequence
        self._sequence = seq + 1
        _heappush(self._heap, (time, seq, callback, args))

    def _raise_bad_time(self, time: float) -> None:
        """Cold path: classify a rejected schedule time."""
        if not _isfinite(time):
            raise ValueError(f"cannot schedule at a non-finite time: t={time}")
        raise ValueError(
            f"cannot schedule into the past: t={time} < now={self._now}"
        )

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Process events in time order.

        Stops when the queue is empty, when the next event lies beyond
        ``until`` (the clock then advances to ``until`` exactly), when a
        callback calls :meth:`stop`, or after ``max_events`` callbacks
        (a runaway guard for tests; ``0`` runs nothing, negative values
        are rejected).  A NaN ``until`` is rejected — no event time is
        ever beyond it, so the horizon would be ignored; ``inf`` is a
        legal "until the queue empties".  Re-entrant calls are rejected
        — callbacks must schedule, not run.
        """
        if self._running:
            raise RuntimeError("Simulator.run() is not re-entrant")
        if max_events is not None and max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {max_events}")
        if until is not None and math.isnan(until):
            raise ValueError("until must not be NaN")
        self._running = True
        self._stop_requested = False
        try:
            budget = max_events if max_events is not None else sys.maxsize
            horizon = until if until is not None else _INF
            heap = self._heap
            heappop = _heappop
            while heap and budget and not self._stop_requested:
                entry = heap[0]
                time = entry[0]
                if time > horizon:
                    break
                heappop(heap)
                callback = entry[2]
                args = entry[3]
                if args is None:
                    # Cancellable event: the third field is its handle.
                    if callback.cancelled:
                        continue
                    args = callback.args
                    callback = callback.callback
                self._now = time
                self._events_processed += 1
                budget -= 1
                callback(*args)
            if (
                until is not None
                and self._now < until
                and not self._stop_requested
            ):
                # Fast-forward to `until` only when nothing remains
                # before it.  If the event budget ran out with events
                # still pending at t <= until, jumping the clock ahead
                # would let the next run() pop those events and move
                # time *backwards*.
                next_time = self._next_pending_time()
                if next_time is None or next_time > until:
                    self._now = until
        finally:
            self._running = False

    def _next_pending_time(self) -> Optional[float]:
        """Timestamp of the earliest live event (pruning cancelled heads)."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3] is not None or not entry[2].cancelled:
                return entry[0]
            _heappop(heap)
        return None

    def stop(self) -> None:
        """Request the current :meth:`run` to return after this event.

        For workload callbacks that know the experiment is over (e.g. an
        application's last query completed) while unrelated background
        traffic would otherwise keep the event loop busy until ``until``.
        """
        self._stop_requested = True

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero.

        The tie-break sequence counter rewinds too: a reset simulator
        schedules events with the same ``(time, sequence)`` keys as a
        freshly constructed one, so an in-process replay is
        indistinguishable from a fresh process.  The heap is cleared in
        place, so a reset issued from inside a running callback empties
        the list the loop is draining.
        """
        self._heap.clear()
        self._now = 0.0
        self._events_processed = 0
        self._sequence = 0
