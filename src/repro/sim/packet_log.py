"""Packet-event logging: a tcpdump for the simulator.

Attach a :class:`PacketLogger` to any set of interfaces and every
delivered packet is recorded — timestamp, interface,
direction-independent flow metadata, and the ECN bits.  Useful for
debugging protocol behaviour ("when exactly did the first ECE reach the
sender?") and for assertions in tests that need packet-level ground
truth instead of aggregate counters.

Records can be filtered, summarised, and written out as text lines in
arrival order.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Iterable, List, Optional

from repro.sim.link import Interface
from repro.sim.packet import Packet

__all__ = ["PacketRecord", "PacketLogger"]


@dataclasses.dataclass(frozen=True)
class PacketRecord:
    """One delivered packet, as observed at one interface."""

    time: float
    interface: str
    flow_id: int
    kind: str  # "DATA" or "ACK"
    seq: int
    ack_seq: int
    size_bytes: int
    ce: bool
    ece: bool
    retransmit: bool

    def line(self) -> str:
        flags = "".join(
            flag
            for flag, on in (
                ("C", self.ce),
                ("E", self.ece),
                ("R", self.retransmit),
            )
            if on
        )
        return (
            f"{self.time * 1e6:12.3f}us {self.interface:24s} "
            f"flow={self.flow_id:<4d} {self.kind:4s} seq={self.seq:<6d} "
            f"ack={self.ack_seq:<6d} {self.size_bytes:5d}B {flags}"
        )


class PacketLogger:
    """Collects packet records from tapped interfaces."""

    def __init__(self, max_records: Optional[int] = None):
        if max_records is not None and max_records <= 0:
            raise ValueError(f"max_records must be positive, got {max_records}")
        self.max_records = max_records
        self.dropped_records = 0
        #: Every observation, in arrival order.
        self.records: List[PacketRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    def attach(self, *interfaces: Interface) -> "PacketLogger":
        """Tap every given interface (returns self for chaining)."""
        for interface in interfaces:
            interface.tap = self._observe
        return self

    def detach(self, *interfaces: Interface) -> None:
        for interface in interfaces:
            if interface.tap == self._observe:
                interface.tap = None

    def _observe(self, time: float, packet: Packet, interface: Interface) -> None:
        if self.max_records is not None and len(self.records) >= self.max_records:
            self.dropped_records += 1
            return
        self.records.append(
            PacketRecord(
                time=time,
                interface=interface.name,
                flow_id=packet.flow_id,
                kind="ACK" if packet.is_ack else "DATA",
                seq=packet.seq,
                ack_seq=packet.ack_seq,
                size_bytes=packet.size_bytes,
                ce=packet.ce,
                ece=packet.ece,
                retransmit=packet.is_retransmit,
            )
        )

    def filter(
        self,
        flow_id: Optional[int] = None,
        kind: Optional[str] = None,
        marked_only: bool = False,
    ) -> List[PacketRecord]:
        """Records matching every given criterion."""
        out: Iterable[PacketRecord] = self.records
        if flow_id is not None:
            out = (r for r in out if r.flow_id == flow_id)
        if kind is not None:
            out = (r for r in out if r.kind == kind)
        if marked_only:
            out = (r for r in out if r.ce or r.ece)
        return list(out)

    def first_time(self, **criteria) -> Optional[float]:
        """Timestamp of the first record matching ``filter`` criteria."""
        matches = self.filter(**criteria)
        return matches[0].time if matches else None

    def summary(self) -> dict:
        """Counts by kind plus marking totals."""
        records = self.records
        data = sum(1 for r in records if r.kind == "DATA")
        acks = len(records) - data
        return {
            "records": len(records),
            "data": data,
            "acks": acks,
            "ce": sum(1 for r in records if r.ce),
            "ece": sum(1 for r in records if r.ece),
            "retransmits": sum(1 for r in records if r.retransmit),
            "dropped_records": self.dropped_records,
        }

    def write(self, path) -> Path:
        """Dump all records as text lines."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w") as handle:
            for record in self.records:
                handle.write(record.line() + "\n")
        return target
