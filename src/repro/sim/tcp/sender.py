"""TCP sender endpoints: Reno, ECN-Reno, and DCTCP.

The sender implements the loss-recovery core every variant shares —
slow start, congestion avoidance, fast retransmit on three duplicate
ACKs with NewReno-style partial-ACK retransmission, and RTO with
exponential backoff (Karn's rule observed) — and hooks for the
ECN reaction, which is where the variants differ:

* :class:`RenoSender` ignores ECE (pure loss-based control, the
  pre-DCTCP baseline);
* :class:`EcnRenoSender` treats ECE like a loss signal: one half-window
  cut per round trip (RFC 3168 behaviour);
* :class:`DctcpSender` implements the paper's Section II-A sender —
  per-window marked-fraction estimate ``alpha`` updated with gain ``g``
  (Eq. 2's discrete original) and a proportional cut
  ``cwnd *= (1 - alpha/2)`` at most once per window of data.

Sequence numbers count MSS-sized packets, the unit used throughout the
paper's analysis.  The congestion window is a float in packets; the
number of packets in flight is bounded by its floor.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.sim.packet import MSS_BYTES, Packet
from repro.sim.tcp.rto import DEFAULT_MIN_RTO, RttEstimator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.node import Host

__all__ = [
    "TcpSender",
    "RenoSender",
    "EcnRenoSender",
    "DctcpSender",
]

#: Conventional "infinite" slow-start threshold.
INITIAL_SSTHRESH = 1e9


class TcpSender:
    """Common sending endpoint; subclasses specialise the ECN reaction.

    ``__slots__`` here (and on the subclasses in this module) because a
    sender is touched once per ACK, and slot access beats dict lookup on
    every one of those reads.
    Subclasses defined elsewhere (CUBIC, D2TCP) declare no slots and so
    keep an instance ``__dict__`` — extra attributes and test
    monkeypatching continue to work there.
    """

    __slots__ = (
        "sim",
        "host",
        "flow_id",
        "peer_node_id",
        "total_packets",
        "on_complete",
        "cwnd",
        "ssthresh",
        "next_seq",
        "_high_water",
        "highest_ack",
        "dup_acks",
        "_in_recovery",
        "_recover_seq",
        "rtt",
        "_rto_timer",
        "_rto_deadline",
        "_send_times",
        "_started",
        "_completed",
        "packets_sent",
        "retransmits",
        "timeouts",
    )

    #: Whether data packets are sent ECN-capable (ECT codepoint).
    ecn_capable = True

    def __init__(
        self,
        sim: "Simulator",
        host: "Host",
        flow_id: int,
        peer_node_id: int,
        total_packets: Optional[int] = None,
        initial_cwnd: float = 10.0,
        min_rto: float = DEFAULT_MIN_RTO,
        max_rto: float = 60.0,
        on_complete: Optional[Callable[[float], None]] = None,
    ):
        # ``not (x > 0)`` rather than ``x <= 0``: a NaN size would never
        # send, and a NaN or infinite window fails at the first send.
        if total_packets is not None and not (
            total_packets > 0 and math.isfinite(total_packets)
        ):
            raise ValueError(
                f"total_packets must be positive and finite, got {total_packets}"
            )
        if not (initial_cwnd >= 1 and math.isfinite(initial_cwnd)):
            raise ValueError(
                f"initial_cwnd must be >= 1 and finite, got {initial_cwnd}"
            )
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.peer_node_id = peer_node_id
        self.total_packets = total_packets
        self.on_complete = on_complete

        self.cwnd: float = float(initial_cwnd)
        self.ssthresh: float = INITIAL_SSTHRESH
        self.next_seq = 0
        #: Highest sequence ever transmitted plus one; after an RTO the
        #: send pointer rewinds below this (go-back-N), and anything
        #: below it re-sent counts as a retransmission (Karn's rule).
        self._high_water = 0
        self.highest_ack = 0
        self.dup_acks = 0
        self._in_recovery = False
        self._recover_seq = 0

        self.rtt = RttEstimator(min_rto=min_rto, max_rto=max_rto)
        self._rto_timer = None
        self._rto_deadline: Optional[float] = None
        self._send_times: Dict[int, float] = {}
        self._started = False
        self._completed = False

        # Counters for the harness.
        self.packets_sent = 0
        self.retransmits = 0
        self.timeouts = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, delay: float = 0.0) -> None:
        """Begin transmitting after ``delay`` seconds of simulated time."""
        if self._started:
            raise RuntimeError(f"flow {self.flow_id} already started")
        self._started = True
        self.sim.post(delay, self._initial_send)

    def _initial_send(self) -> None:
        self._try_send()

    @property
    def completed(self) -> bool:
        """True once every packet of a sized transfer is acknowledged."""
        return self._completed

    @property
    def in_flight(self) -> int:
        """Packets sent but not yet cumulatively acknowledged."""
        return self.next_seq - self.highest_ack

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def _try_send(self) -> None:
        # ``in_flight < cwnd`` and the transfer size are one bound on
        # ``next_seq`` computed once: nothing in the loop body can move
        # ``highest_ack`` (transmission is asynchronous; no callback
        # re-enters this sender before the loop exits).  The retransmit
        # flag against a frozen high-water mark is exact too: after
        # sending seq, the mark is ``max(high, seq + 1)``.
        next_seq = self.next_seq
        limit = self.highest_ack + int(self.cwnd)
        total = self.total_packets
        if total is not None and total < limit:
            limit = total
        high = self._high_water
        transmit = self._transmit
        while next_seq < limit:
            transmit(next_seq, next_seq < high)
            next_seq += 1
        self.next_seq = next_seq
        self._arm_rto()

    def _transmit(self, seq: int, retransmit: bool) -> None:
        packet = Packet(self.flow_id, self.host.node_id, self.peer_node_id,
                        seq, MSS_BYTES, False, -1, self.ecn_capable)
        packet.is_retransmit = retransmit
        if retransmit:
            self.retransmits += 1
            # Karn's rule: a retransmitted sequence yields no RTT sample.
            self._send_times.pop(seq, None)
        else:
            self._send_times[seq] = self.sim._now
        if seq >= self._high_water:
            self._high_water = seq + 1
        self.packets_sent += 1
        self.host.send(packet)

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        if not packet.is_ack or self._completed:
            return
        if packet.ack_seq > self.highest_ack:
            self._on_new_ack(packet)
        elif packet.ack_seq == self.highest_ack:
            self._on_duplicate_ack(packet)
        # ACKs below the cumulative point are stale; ignored.

        if not self._completed:
            self._try_send()

    def _on_new_ack(self, packet: Packet) -> None:
        ack_seq = packet.ack_seq
        old_highest = self.highest_ack
        newly = ack_seq - old_highest
        self.highest_ack = ack_seq
        # After a go-back-N rewind the cumulative ACK can leap past the
        # send pointer (the receiver had the "lost" tail buffered all
        # along); snap the pointer forward so in_flight stays correct.
        if self.next_seq < ack_seq:
            self.next_seq = ack_seq
        self.dup_acks = 0

        send_times = self._send_times
        sample_time = send_times.pop(ack_seq - 1, None)
        if newly > 1:
            for seq in range(old_highest, ack_seq - 1):
                send_times.pop(seq, None)
        # Guard against zero-delay acknowledgements (possible only with
        # synthetic/looped-back ACKs): the estimator needs rtt > 0.
        now = self.sim._now
        if sample_time is not None and now > sample_time:
            self.rtt.on_sample(now - sample_time)  # undoes any backoff

        # The ECN hook may *enter* recovery (CUBIC does), so the flag is
        # read only after it ran.
        self._on_ecn_feedback(packet, newly)

        if self._in_recovery:
            if ack_seq >= self._recover_seq:
                self._in_recovery = False
                self.cwnd = max(self.ssthresh, 1.0)
            else:
                # NewReno partial ACK: the next hole is lost too.
                self._transmit(ack_seq, retransmit=True)
        else:
            self._grow_window(newly)

        if self.total_packets is not None and ack_seq >= self.total_packets:
            self._complete()

    def _grow_window(self, newly_acked: int) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += float(newly_acked)
        else:
            self.cwnd += float(newly_acked) / self.cwnd

    def _on_duplicate_ack(self, packet: Packet) -> None:
        # A dupack for an empty window is a stray (e.g. a late ACK after
        # recovery already moved on); only count when data is in flight.
        if self.in_flight == 0:
            return
        self.dup_acks += 1
        self._on_ecn_feedback(packet, 0)
        if self.dup_acks == 3 and not self._in_recovery:
            self._enter_recovery()

    def _enter_recovery(self) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = self.ssthresh
        self._in_recovery = True
        self._recover_seq = self.next_seq
        self._transmit(self.highest_ack, retransmit=True)

    # ------------------------------------------------------------------
    # ECN reaction (the variant-specific part)
    # ------------------------------------------------------------------

    def _on_ecn_feedback(self, packet: Packet, newly_acked: int) -> None:
        """Hook: called for every processed ACK, ECE or not."""

    # ------------------------------------------------------------------
    # RTO
    # ------------------------------------------------------------------

    def _arm_rto(self) -> None:
        """Slide the retransmission deadline forward from *now*.

        Once per ACK: every ACK that leaves the flow open ends in
        :meth:`_try_send`, whose last act this is; the ACK handlers and
        :meth:`_enter_recovery` do not re-arm on their own.

        Soft deadline: acknowledgements only move the ``_rto_deadline``
        variable; the single pending timer event checks it when it fires
        and re-sleeps until the deadline (:meth:`_on_rto`).  The
        textbook alternative — cancel and re-push the timer event on
        every ACK — costs one heap push per delivered segment and
        litters the heap with cancelled entries.  The deadline is an
        absolute time, not a sum of remainders, so the timeout executes
        at the identical simulated instant either way; a test-local
        eager subclass in ``tests/sim/test_timer_model_differential.py``
        holds the traces to that, bit for bit.
        """
        if self.next_seq == self.highest_ack:
            self._rto_deadline = None
            return
        deadline = self.sim._now + self.rtt.rto
        self._rto_deadline = deadline
        timer = self._rto_timer
        if timer is None:
            self._rto_timer = self.sim.schedule_at(deadline, self._on_rto)
        elif timer.time > deadline:
            # The pending event would fire too late (the RTO shrank, e.g.
            # after the first RTT samples); bring it forward.  Strict
            # comparison: the timeout must land at the deadline exactly,
            # or traces diverge from the eager re-arm by an epsilon.
            timer.cancel()
            self._rto_timer = self.sim.schedule_at(deadline, self._on_rto)

    def _cancel_rto(self) -> None:
        self._rto_deadline = None
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None

    def _on_rto(self) -> None:
        self._rto_timer = None
        if self._completed or self._rto_deadline is None or self.in_flight == 0:
            return
        if self.sim.now < self._rto_deadline:
            # The deadline moved while we slept; sleep out the remainder.
            # ``schedule_at`` (not ``schedule(deadline - now)``) so the
            # event lands on the deadline's exact float — adding the
            # difference back to ``now`` can be off by one ulp.
            self._rto_timer = self.sim.schedule_at(
                self._rto_deadline, self._on_rto
            )
            return
        self.timeouts += 1
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = 1.0
        self.dup_acks = 0
        self._in_recovery = False
        self.rtt.backoff()
        # Go-back-N: everything outstanding is presumed lost; the send
        # pointer rewinds to the first unacknowledged packet and slow
        # start re-covers the window (re-sent sequences below the high
        # water mark count as retransmissions and take no RTT samples).
        self.next_seq = self.highest_ack
        self._transmit(self.next_seq, retransmit=True)
        self.next_seq += 1
        deadline = self.sim.now + self.rtt.rto
        self._rto_deadline = deadline
        self._rto_timer = self.sim.schedule_at(deadline, self._on_rto)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def _complete(self) -> None:
        self._completed = True
        self._cancel_rto()
        self._send_times.clear()
        if self.on_complete is not None:
            self.on_complete(self.sim.now)


class RenoSender(TcpSender):
    """Loss-only TCP; data is sent not-ECN-capable so switches drop."""

    __slots__ = ()

    ecn_capable = False


class EcnRenoSender(TcpSender):
    """RFC 3168 TCP: an ECE mark triggers a half-window cut once per RTT."""

    __slots__ = ("_cut_end",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._cut_end = 0

    def _on_ecn_feedback(self, packet: Packet, newly_acked: int) -> None:
        if packet.ece and self.highest_ack > self._cut_end:
            self.ssthresh = max(self.cwnd / 2.0, 2.0)
            self.cwnd = self.ssthresh
            self._cut_end = self.next_seq


class DctcpSender(TcpSender):
    """The paper's DCTCP sender (Section II-A).

    Maintains ``alpha``, the EWMA of the per-window marked fraction
    ``F``, and on the first ECE of a window cuts
    ``cwnd *= (1 - alpha/2)``: a gentle, congestion-extent-proportional
    decrease instead of Reno's blind halving.  Identical sender behaviour
    serves both DCTCP and DT-DCTCP — the paper's change is entirely in
    the switch's marking rule.
    """

    __slots__ = (
        "g",
        "alpha",
        "_window_acked",
        "_window_marked",
        "_alpha_seq",
        "_cut_end",
    )

    def __init__(self, *args, g: float = 1.0 / 16.0, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 < g < 1.0:
            raise ValueError(f"g must lie in (0, 1), got {g}")
        self.g = g
        #: Start pessimistic (alpha = 1), as production DCTCP stacks do:
        #: a cold-start sender that receives marks before its first
        #: alpha update would otherwise compute a zero cut and steamroll
        #: the switch buffer — fatal in incast.
        self.alpha = 1.0
        self._window_acked = 0
        self._window_marked = 0
        self._alpha_seq = 0
        self._cut_end = 0

    def _on_ecn_feedback(self, packet: Packet, newly_acked: int) -> None:
        if newly_acked > 0:
            self._window_acked += newly_acked
            if packet.ece:
                self._window_marked += newly_acked

        # One alpha update per window of data (~one RTT).
        if self.highest_ack >= self._alpha_seq and self._window_acked > 0:
            fraction = self._window_marked / self._window_acked
            self.alpha = (1.0 - self.g) * self.alpha + self.g * fraction
            self._window_acked = 0
            self._window_marked = 0
            self._alpha_seq = self.next_seq

        # One proportional cut per window containing any mark.
        if packet.ece and self.highest_ack > self._cut_end:
            self.cwnd = max(self.cwnd * (1.0 - self.alpha / 2.0), 1.0)
            self.ssthresh = max(self.cwnd, 2.0)
            self._cut_end = self.next_seq
