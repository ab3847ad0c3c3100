"""Transport endpoints: Reno / ECN-Reno / DCTCP senders, DCTCP receiver."""

from repro.sim.tcp.cubic import CubicSender
from repro.sim.tcp.d2tcp import D2tcpSender
from repro.sim.tcp.flow import Flow, open_flow
from repro.sim.tcp.intervals import IntervalSet
from repro.sim.tcp.receiver import TcpReceiver
from repro.sim.tcp.rto import DEFAULT_MIN_RTO, RttEstimator
from repro.sim.tcp.sender import (
    DctcpSender,
    EcnRenoSender,
    RenoSender,
    TcpSender,
)

__all__ = [
    "CubicSender",
    "D2tcpSender",
    "DEFAULT_MIN_RTO",
    "DctcpSender",
    "EcnRenoSender",
    "Flow",
    "IntervalSet",
    "RenoSender",
    "RttEstimator",
    "TcpReceiver",
    "TcpSender",
    "open_flow",
]
