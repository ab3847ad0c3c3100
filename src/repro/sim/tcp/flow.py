"""Flow wiring: one sender endpoint + one receiver endpoint, matched ids.

:func:`open_flow` is the one-stop constructor the applications and
experiments use: it allocates a flow id, builds the requested sender
variant on the source host and a receiver on the destination host,
registers both for demux, and returns the pair as a :class:`Flow`.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Optional, Type

from repro.sim.node import Host
from repro.sim.tcp.receiver import TcpReceiver
from repro.sim.tcp.sender import DctcpSender, TcpSender

__all__ = ["Flow", "open_flow", "reset_flow_ids"]

_flow_ids = itertools.count(1)


def reset_flow_ids(start: int = 1) -> None:
    """Begin a fresh flow-id epoch.

    Called by :class:`repro.sim.topology.Network` on construction: flow
    ids feed the switches' ECMP path hash, so a scenario's flow
    placement must depend only on the scenario — never on how many
    flows earlier simulations in this process happened to open.  Demux
    is per-host, so concurrent networks restarting from 1 cannot
    collide.
    """
    global _flow_ids
    _flow_ids = itertools.count(start)


@dataclasses.dataclass
class Flow:
    """A unidirectional transport connection."""

    flow_id: int
    sender: TcpSender
    receiver: TcpReceiver

    @property
    def completed(self) -> bool:
        return self.sender.completed

    def start(self, delay: float = 0.0) -> None:
        self.sender.start(delay)

    def close(self) -> None:
        """Unregister both endpoints (used when churning many flows)."""
        self.sender.host.unregister_endpoint(self.flow_id)
        self.receiver.host.unregister_endpoint(self.flow_id)


def open_flow(
    src: Host,
    dst: Host,
    sender_cls: Type[TcpSender] = DctcpSender,
    total_packets: Optional[int] = None,
    on_complete: Optional[Callable[[float], None]] = None,
    **sender_kwargs,
) -> Flow:
    """Create and register a ``src -> dst`` connection.

    ``sender_kwargs`` pass through to the sender class (``initial_cwnd``,
    ``min_rto``, ``g`` for DCTCP, ...).
    """
    if src.sim is not dst.sim:
        raise ValueError("flow endpoints must live in the same simulation")
    flow_id = next(_flow_ids)
    sender = sender_cls(
        sim=src.sim,
        host=src,
        flow_id=flow_id,
        peer_node_id=dst.node_id,
        total_packets=total_packets,
        on_complete=on_complete,
        **sender_kwargs,
    )
    receiver = TcpReceiver(
        sim=dst.sim,
        host=dst,
        flow_id=flow_id,
        peer_node_id=src.node_id,
    )
    src.register_endpoint(flow_id, sender)
    dst.register_endpoint(flow_id, receiver)
    return Flow(flow_id=flow_id, sender=sender, receiver=receiver)
