"""Packet model.

Packets are deliberately simple: one MSS of payload per data packet,
packet-granularity sequence numbers (the unit the paper's analysis uses
throughout), and the three ECN-related bits that DCTCP needs — CE set by
switches, ECE echoed by receivers.

``__slots__`` keeps per-packet overhead low; simulations push hundreds of
thousands of these through the heap.  Packets are plain objects:
endpoints construct one per segment and per ACK, and whoever consumes a
packet (the terminating host, a dropping queue, the fault layer) simply
lets go of it.
"""

from __future__ import annotations

__all__ = [
    "Packet",
    "MSS_BYTES",
    "ACK_BYTES",
    "HEADER_BYTES",
]

#: Maximum segment size: the paper's "each packet is about 1.5KB".
MSS_BYTES = 1500
#: Pure ACK size on the wire (TCP/IP headers only).
ACK_BYTES = 40
#: Header overhead carried by every data packet (already included in MSS).
HEADER_BYTES = 40


class Packet:
    """One simulated packet (data segment or ACK)."""

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "seq",
        "size_bytes",
        "is_ack",
        "ack_seq",
        "ce",
        "ece",
        "ecn_capable",
        "is_retransmit",
        "deliver_at",
    )

    def __init__(
        self,
        flow_id: int,
        src: int,
        dst: int,
        seq: int,
        size_bytes: int,
        is_ack: bool = False,
        ack_seq: int = -1,
        ecn_capable: bool = True,
    ):
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        #: Packet-granularity sequence number of this data segment.
        self.seq = seq
        self.size_bytes = size_bytes
        self.is_ack = is_ack
        #: Cumulative ACK: next sequence number expected by the receiver.
        self.ack_seq = ack_seq
        #: Congestion Experienced — set by a marking switch en route.
        self.ce = False
        #: ECN Echo — receiver's feedback bit carried on ACKs.
        self.ece = False
        #: ECT: whether switches may mark instead of relying on drops.
        self.ecn_capable = ecn_capable
        self.is_retransmit = False
        #: Scratch field owned by the in-flight interface: the simulated
        #: instant a busy-until link hands this packet to its peer.
        self.deliver_at = -1.0

    def __repr__(self) -> str:
        kind = "ACK" if self.is_ack else "DATA"
        flags = "".join(
            flag
            for flag, on in (("C", self.ce), ("E", self.ece))
            if on
        )
        return (
            f"Packet({kind} flow={self.flow_id} seq={self.seq} "
            f"ack={self.ack_seq} {self.size_bytes}B {flags})"
        )
