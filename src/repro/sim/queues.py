"""Switch output-queue disciplines.

A :class:`FifoQueue` couples a bounded FIFO with a pluggable
:class:`~repro.core.marking.Marker`:

* marker ``NullMarker``            -> plain DropTail (the paper's leaf
  switches);
* marker ``SingleThresholdMarker`` -> DCTCP's marking switch;
* marker ``DoubleThresholdMarker`` -> DT-DCTCP's marking switch;
* marker ``REDMarker``             -> RED baseline for ablations.

Marking happens on arrival from the *instantaneous* queue occupancy in
packets — exactly the rule of Figure 2 — before the arriving packet is
appended.  Only ECN-capable packets are marked; a marker's verdict on a
non-ECT packet is ignored (it is enqueued unmarked), matching how ECN
switches treat non-ECT traffic short of overflow.

Capacity is enforced in bytes (the paper's switches are sized in KB:
128 KB marking ports, 512 KB DropTail ports); an arriving packet that
does not fit is dropped and counted.

Deferred service (the busy-until fast lane)
-------------------------------------------

A busy-until :class:`~repro.sim.link.Interface` dequeues packets
*lazily*: instead of an event at every transmission boundary, it
installs :attr:`drain_hook` and performs all dequeues whose start time
has passed the moment anyone looks at the queue.  Every observable entry
point (``enqueue``, ``dequeue``, occupancy, ``stats``) runs the hook
first, so external observers always see exactly the state the eager
two-event schedule would have produced, while the hot path pays one heap
event per packet instead of two.  ``dequeue(at_time=...)`` lets the
draining interface stamp each deferred dequeue with its true
transmission-start time (used by the event-exact
:class:`~repro.sim.trace.TrackedFifoQueue`).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Optional, TYPE_CHECKING

from repro.core.marking import Marker, NullMarker
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.buffer_pool import SharedBufferPool

__all__ = ["FifoQueue", "QueueStats"]


class QueueStats:
    """Cumulative counters a queue maintains for the harness."""

    __slots__ = ("enqueued", "dequeued", "dropped", "marked")

    def __init__(self) -> None:
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.marked = 0

    def __repr__(self) -> str:
        return (
            f"QueueStats(enq={self.enqueued}, deq={self.dequeued}, "
            f"drop={self.dropped}, mark={self.marked})"
        )


class FifoQueue:
    """Bounded FIFO with arrival-time ECN marking.

    The marker's ``should_mark`` dispatch is resolved to a bound method
    once at construction and the per-packet bodies run
    straight-line with counters hoisted into locals.
    """

    __slots__ = (
        "capacity_bytes",
        "marker",
        "name",
        "pool",
        "drain_hook",
        "_queue",
        "_bytes",
        "_stats",
        "_marker_should_mark",
        "_marker_k",
    )

    def __init__(
        self,
        capacity_bytes: float,
        marker: Optional[Marker] = None,
        name: str = "",
        pool: Optional["SharedBufferPool"] = None,
    ):
        # ``not (x > 0)`` rather than ``x <= 0``: NaN fails both
        # comparisons and would otherwise admit every packet.
        if not (capacity_bytes > 0 and math.isfinite(capacity_bytes)):
            raise ValueError(
                f"capacity_bytes must be positive and finite, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self.marker = marker if marker is not None else NullMarker()
        self.name = name
        #: Optional shared-memory pool this port draws from; see
        #: :mod:`repro.sim.buffer_pool`.
        self.pool = pool
        #: Deferred-service hook installed by a busy-until
        #: :class:`~repro.sim.link.Interface`: called before any
        #: observation so lazily deferred dequeues are applied first.
        self.drain_hook: Optional[Callable[[], None]] = None
        self._queue: Deque[Packet] = deque()
        self._bytes = 0
        self._stats = QueueStats()
        #: The marker's dispatch, resolved once: ``marker`` is fixed for
        #: the queue's lifetime (``reset()`` restarts its *state*, never
        #: swaps the object), so no packet pays a ``getattr`` ladder.
        self._marker_should_mark = self.marker.should_mark
        #: A memoryless marker declares ``fused_threshold`` — ``K`` for
        #: DCTCP's relay, ``inf`` for DropTail (see
        #: :class:`~repro.core.marking.Marker`) — and the fused lane
        #: inlines ``occupancy >= K`` instead of paying the method call
        #: on every arrival.  ``None``: the marker keeps state; call it.
        self._marker_k: Optional[float] = getattr(
            self.marker, "fused_threshold", None
        )

    def _service(self) -> None:
        hook = self.drain_hook
        if hook is not None:
            hook()

    @property
    def stats(self) -> QueueStats:
        """Cumulative counters, current as of the simulated instant."""
        self._service()
        return self._stats

    def __len__(self) -> int:
        self._service()
        return len(self._queue)

    @property
    def len_packets(self) -> int:
        """Instantaneous occupancy in packets (the marking variable)."""
        self._service()
        return len(self._queue)

    @property
    def len_bytes(self) -> int:
        """Instantaneous occupancy in bytes (the drop variable)."""
        self._service()
        return self._bytes

    @property
    def is_empty(self) -> bool:
        self._service()
        return not self._queue

    def enqueue(self, packet: Packet) -> bool:
        """Admit ``packet``; returns False (and counts a drop) on overflow.

        The marking decision is taken on every arrival — even one that is
        subsequently dropped — because stateful markers (DT-DCTCP's
        hysteresis) must observe the full arrival process to track the
        queue's direction.

        Callers must have replayed any deferred dequeues first (the
        interface's send() fast lane does this inline); the marking
        decision below observes raw occupancy.  The only enqueue caller
        in the tree is :meth:`repro.sim.link.Interface.send`.
        """
        stats = self._stats
        wants_mark = self._marker_should_mark(len(self._queue))
        size = packet.size_bytes
        if self._bytes + size > self.capacity_bytes:
            stats.dropped += 1
            return False
        if self.pool is not None and not self.pool.admit(
            self._bytes, size
        ):
            stats.dropped += 1
            return False
        if wants_mark and packet.ecn_capable:
            packet.ce = True
            stats.marked += 1
        self._queue.append(packet)
        self._bytes += size
        stats.enqueued += 1
        return True

    def dequeue(self, at_time: Optional[float] = None) -> Optional[Packet]:
        """Remove and return the head packet, or None when empty.

        ``at_time`` is the simulated instant the dequeue semantically
        happens at — passed by a busy-until interface replaying deferred
        transmission starts, ``None`` (meaning "now") for eager callers.
        The base queue ignores it; time-stamping subclasses
        (:class:`~repro.sim.trace.TrackedFifoQueue`) record it.
        """
        if at_time is None:
            # Eager caller: deferred dequeues must replay first.  Replay
            # calls themselves (at_time set) come *from* the drain hook's
            # owner, which already holds the ordering invariant.
            hook = self.drain_hook  # inlined _service(): hot path
            if hook is not None:
                hook()
        if not self._queue:
            return None
        packet = self._queue.popleft()
        size = packet.size_bytes
        self._bytes -= size
        if self.pool is not None:
            self.pool.release(size)
        self._stats.dequeued += 1
        return packet

    def reset(self) -> None:
        """Empty the queue and restart marker state and counters."""
        if self.pool is not None and self._bytes:
            self.pool.release(self._bytes)
        self._queue.clear()
        self._bytes = 0
        self.marker.reset()
        self._stats = QueueStats()

    def __repr__(self) -> str:
        return (
            f"FifoQueue({self.name!r}, {self.len_packets} pkts / "
            f"{self.len_bytes}B of {self.capacity_bytes}B, marker={self.marker!r})"
        )
