"""TCP receiver endpoint with DCTCP's accurate ECN feedback.

The receiver reassembles the packet-granular sequence space (cumulative
ACK plus an out-of-order set) and acknowledges every data packet at
once, the configuration the paper's fluid model assumes:

* each ACK's ECN-Echo flag is the CE bit of the one data packet it
  answers, so the sender reads the marked fraction exactly (the DCTCP
  receiver rule of Alizadeh et al., SIGCOMM 2010, Section 3.2, with one
  ACK per packet);
* an out-of-order arrival therefore draws an immediate duplicate ACK
  (standard TCP), which is what lets senders fast-retransmit.
"""

from __future__ import annotations

from typing import Set, TYPE_CHECKING

from repro.sim.packet import ACK_BYTES, Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.node import Host

__all__ = ["TcpReceiver"]


class TcpReceiver:
    """Receiving endpoint of one flow."""

    __slots__ = ("sim", "host", "flow_id", "peer_node_id", "rcv_next",
                 "_out_of_order", "packets_received", "duplicates_received",
                 "acks_sent")

    def __init__(
        self,
        sim: "Simulator",
        host: "Host",
        flow_id: int,
        peer_node_id: int,
    ):
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.peer_node_id = peer_node_id

        #: Next in-order sequence number expected.
        self.rcv_next = 0
        #: Sequence numbers held beyond ``rcv_next``.
        self._out_of_order: Set[int] = set()

        self.packets_received = 0
        self.duplicates_received = 0
        self.acks_sent = 0

    def on_packet(self, packet: Packet) -> None:
        """Handle one arriving data packet: reassemble, then ACK it."""
        if packet.is_ack:
            return  # receivers send no data; stray ACKs are ignored
        self.packets_received += 1

        seq = packet.seq
        rcv_next = self.rcv_next
        if seq == rcv_next:
            rcv_next += 1
            buffered = self._out_of_order
            # Advance through any buffered run the arrival joins up with.
            while rcv_next in buffered:
                buffered.remove(rcv_next)
                rcv_next += 1
            self.rcv_next = rcv_next
        elif seq > rcv_next:
            self._out_of_order.add(seq)
        else:
            self.duplicates_received += 1

        ack = Packet(self.flow_id, self.host.node_id, self.peer_node_id, -1,
                     ACK_BYTES, True, rcv_next)
        ack.ece = packet.ce
        self.acks_sent += 1
        self.host.send(ack)
