"""TCP receiver endpoint with DCTCP's accurate ECN feedback.

The receiver reassembles the packet-granular sequence space (cumulative
ACK plus an out-of-order set) and generates ACKs under the DCTCP
receiver rules (Alizadeh et al., SIGCOMM 2010, Section 3.2):

* ACKs carry an ECN-Echo flag conveying the CE state of the data packets
  they cover;
* with delayed ACKs (one ACK per ``m`` packets), a change in the CE
  state of the incoming stream forces an *immediate* ACK for the
  packets received so far — carrying the *old* CE state — so the sender
  can reconstruct the marked fraction exactly;
* out-of-order arrivals force immediate duplicate ACKs (standard TCP),
  which is what lets senders fast-retransmit.

``delayed_ack_factor = 1`` (the default) acknowledges every packet, the
configuration the paper's fluid model assumes.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.sim.packet import ACK_BYTES, Packet
from repro.sim.tcp.intervals import IntervalSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.node import Host

__all__ = ["TcpReceiver"]


class TcpReceiver:
    """Receiving endpoint of one flow."""

    def __init__(
        self,
        sim: "Simulator",
        host: "Host",
        flow_id: int,
        peer_node_id: int,
        delayed_ack_factor: int = 1,
        delayed_ack_timeout: float = 500e-6,
        on_data: Optional[Callable[[int], None]] = None,
        sack_enabled: bool = False,
    ):
        if delayed_ack_factor < 1:
            raise ValueError(
                f"delayed_ack_factor must be >= 1, got {delayed_ack_factor}"
            )
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.peer_node_id = peer_node_id
        self.delayed_ack_factor = delayed_ack_factor
        self.delayed_ack_timeout = delayed_ack_timeout
        #: Callback fired with the count of newly in-order packets, the
        #: hook applications use to measure goodput/completion.
        self.on_data = on_data
        #: Whether ACKs carry SACK blocks for the out-of-order data.
        self.sack_enabled = sack_enabled

        #: Next in-order sequence number expected.
        self.rcv_next = 0
        self._out_of_order = IntervalSet()
        #: CE state of the most recent data packet (DCTCP's one-bit state).
        self._last_ce = False
        #: Data packets covered by the pending (not yet sent) ACK.
        self._pending = 0
        self._delack_timer = None

        self.packets_received = 0
        self.duplicates_received = 0
        self.acks_sent = 0

    def on_packet(self, packet: Packet) -> None:
        """Handle one arriving data packet."""
        if packet.is_ack:
            return  # receivers send no data; stray ACKs are ignored
        self.packets_received += 1

        # DCTCP feedback rule first: a CE transition flushes the
        # coalesced ACK carrying the *previous* CE state, covering only
        # the packets received before this one (hence before the
        # reassembly update below).
        if packet.ce != self._last_ce and self._pending > 0:
            self._emit_ack(ece=self._last_ce, covered=self._pending)
            self._pending = 0
            self._cancel_delack()
        self._last_ce = packet.ce

        in_order_advance = 0
        if packet.seq == self.rcv_next:
            if not self._out_of_order:
                # Nothing buffered: the gap search would return
                # ``rcv_next + 1`` and the removal would be a no-op —
                # the in-order common case advances by one, two method
                # calls cheaper.
                in_order_advance = 1
                self.rcv_next += 1
            else:
                # Advance through any buffered run the arrival joins
                # up with.
                new_next = self._out_of_order.first_gap_at_or_after(
                    self.rcv_next + 1
                )
                in_order_advance = new_next - self.rcv_next
                self.rcv_next = new_next
                self._out_of_order.remove_below(new_next)
        elif packet.seq > self.rcv_next:
            self._out_of_order.add(packet.seq)
        else:
            self.duplicates_received += 1

        if in_order_advance and self.on_data is not None:
            self.on_data(in_order_advance)

        self._pending += 1

        out_of_order = packet.seq != self.rcv_next - in_order_advance
        if out_of_order or self._pending >= self.delayed_ack_factor:
            self._emit_ack(ece=self._last_ce, covered=self._pending)
            self._pending = 0
            self._cancel_delack()
        elif self._delack_timer is None:
            self._delack_timer = self.sim.schedule(
                self.delayed_ack_timeout, self._on_delack_timeout
            )

    def _on_delack_timeout(self) -> None:
        self._delack_timer = None
        if self._pending > 0:
            self._emit_ack(ece=self._last_ce, covered=self._pending)
            self._pending = 0

    def _cancel_delack(self) -> None:
        if self._delack_timer is not None:
            self._delack_timer.cancel()
            self._delack_timer = None

    def _emit_ack(self, ece: bool, covered: int) -> None:
        ack = Packet(
            flow_id=self.flow_id,
            src=self.host.node_id,
            dst=self.peer_node_id,
            seq=-1,
            size_bytes=ACK_BYTES,
            is_ack=True,
            ack_seq=self.rcv_next,
        )
        ack.ece = ece
        ack.delayed_ack_count = covered
        if self.sack_enabled and self._out_of_order:
            ack.sack_blocks = tuple(self._out_of_order.blocks[:3])
        self.acks_sent += 1
        self.host.send(ack)
