"""Packet-level discrete-event network simulator (the ns-2 substitute)."""

from repro.sim.buffer_pool import SharedBufferPool
from repro.sim.chaos import ChaosController, ChaosSchedule
from repro.sim.engine import EventHandle, Simulator
from repro.sim.invariants import (
    InvariantViolation,
    InvariantWatchdog,
    audit_network,
)
from repro.sim.link import Interface
from repro.sim.node import Host, Node, Switch
from repro.sim.packet import ACK_BYTES, MSS_BYTES, Packet
from repro.sim.queues import FifoQueue, QueueStats
from repro.sim.topology import (
    DumbbellNetwork,
    Network,
    TestbedNetwork,
    dumbbell,
    paper_testbed,
)
from repro.sim.trace import AlphaMonitor, QueueMonitor

__all__ = [
    "ACK_BYTES",
    "AlphaMonitor",
    "ChaosController",
    "ChaosSchedule",
    "DumbbellNetwork",
    "EventHandle",
    "FifoQueue",
    "InvariantViolation",
    "InvariantWatchdog",
    "audit_network",
    "Host",
    "Interface",
    "MSS_BYTES",
    "Network",
    "Node",
    "Packet",
    "QueueMonitor",
    "QueueStats",
    "SharedBufferPool",
    "Simulator",
    "Switch",
    "TestbedNetwork",
    "dumbbell",
    "paper_testbed",
]
