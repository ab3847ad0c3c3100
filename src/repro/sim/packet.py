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

import itertools

__all__ = [
    "Packet",
    "MSS_BYTES",
    "ACK_BYTES",
    "HEADER_BYTES",
    "reset_packet_uids",
]

#: Maximum segment size: the paper's "each packet is about 1.5KB".
MSS_BYTES = 1500
#: Pure ACK size on the wire (TCP/IP headers only).
ACK_BYTES = 40
#: Header overhead carried by every data packet (already included in MSS).
HEADER_BYTES = 40

_packet_ids = itertools.count()


def reset_packet_uids(start: int = 0) -> None:
    """Begin a fresh packet-uid epoch.

    Called by :class:`repro.sim.topology.Network` on construction so a
    scenario's packet uids (and hence any uid-bearing logs) depend only
    on the scenario, not on how many simulations the process ran
    before — in-process replays match fresh-process runs exactly.
    """
    global _packet_ids
    _packet_ids = itertools.count(start)


class Packet:
    """One simulated packet (data segment or ACK)."""

    __slots__ = (
        "uid",
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
        "sent_at",
        "is_retransmit",
        "delayed_ack_count",
        "sack_blocks",
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
        self.uid = next(_packet_ids)
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
        #: Simulated send time, for RTT sampling (-1 on retransmits,
        #: which are excluded from RTT estimation per Karn's rule).
        self.sent_at = -1.0
        self.is_retransmit = False
        #: How many data packets this (possibly delayed) ACK covers.
        self.delayed_ack_count = 1
        #: SACK option: up to three ``(start, end)`` received-out-of-order
        #: ranges beyond the cumulative point (empty when SACK is off).
        self.sack_blocks: tuple = ()
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
