"""Long-lived bulk flows: the workload of Figures 1 and 10-12.

"N servers send messages to one client at the same time" — every sender
host of a dumbbell opens one infinite-backlog flow to the client and all
flows start together (with an optional tiny jitter to model independent
hosts; zero keeps the paper's perfectly synchronized start).
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Type

from repro.sim.tcp.flow import Flow, open_flow
from repro.sim.tcp.sender import DctcpSender, TcpSender
from repro.sim.topology import DumbbellNetwork

__all__ = ["launch_bulk_flows"]


def launch_bulk_flows(
    network: DumbbellNetwork,
    sender_cls: Type[TcpSender] = DctcpSender,
    start_jitter: float = 0.0,
    jitter_seed: int = 0,
    **sender_kwargs,
) -> List[Flow]:
    """One infinite flow from every dumbbell sender to the client.

    Returns the flows (their senders expose ``alpha``, ``cwnd``,
    timeout counters for the monitors).
    """
    if not (0.0 <= start_jitter < math.inf):  # NaN fails it too
        raise ValueError(f"start_jitter must be >= 0 and finite, got {start_jitter}")
    rng: Optional[random.Random] = (
        random.Random(jitter_seed) if start_jitter > 0 else None
    )
    flows = []
    for sender_host in network.senders:
        flow = open_flow(
            sender_host,
            network.receiver,
            sender_cls=sender_cls,
            total_packets=None,
            **sender_kwargs,
        )
        delay = rng.uniform(0.0, start_jitter) if rng is not None else 0.0
        flow.start(delay)
        flows.append(flow)
    return flows
