"""Canonical protocol configurations used across all experiments.

The paper evaluates two switch configurations in two environments:

* **simulation** (Section VI-A): 10 Gbps, RTT 100 us, thresholds in
  packets — K = 40 for DCTCP; K1 = 30, K2 = 50 for DT-DCTCP, g = 1/16;
* **testbed** (Section VI-B): 1 Gbps, thresholds in KB — K = 32 KB for
  DCTCP; DT-DCTCP thresholds straddling it.  The paper's testbed lists
  "K1 = 34KB, K2 = 28KB", with the larger value first — inconsistent
  with its own analysis convention (K1 < K2), so we read it as the pair
  {28 KB, 34 KB} with marking starting at the lower and stopping at the
  higher, per Sections III-V.

A :class:`ProtocolConfig` bundles a display name, a marker factory for
the switch, and the sender class — everything a topology builder and an
experiment need.  Senders and simulation schemes come from the protocol
table (:mod:`repro.sim.protocols`), markers from the scheme objects;
this module only adds the testbed's numbers.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

from repro.core.marking import (
    DEFAULT_DIRECTION_DEADBAND,
    DoubleThresholdParams,
    Marker,
    MarkingParams,
    NullMarker,
    REDMarker,
    SingleThresholdParams,
)
from repro.sim.packet import MSS_BYTES
from repro.sim.protocols import PROTOCOLS
from repro.sim.tcp.sender import TcpSender

__all__ = [
    "PROTOCOL_REGISTRY",
    "ProtocolConfig",
    "dctcp_sim",
    "dt_dctcp_sim",
    "dctcp_testbed",
    "dt_dctcp_testbed",
    "ecn_red_baseline",
    "group_by_protocol",
    "paper_config",
    "protocol_by_id",
]

KB = 1024

_P = TypeVar("_P")

#: Direction deadband for DT-DCTCP's packet-level hysteresis: wide-gap
#: simulation thresholds tolerate a couple packets of jitter rejection.
SIM_DEADBAND = DEFAULT_DIRECTION_DEADBAND
#: The testbed thresholds are only ~4 packets apart, so the deadband
#: must stay well below the gap or the hysteresis degenerates into a
#: single effective threshold.  Explicit, not the scheme's gap/8 rule:
#: that gives 0.512 for 28/34 KB and would move Figures 14-15.
TESTBED_DEADBAND = 0.5

_TESTBED_DCTCP = (SingleThresholdParams(k=32 * KB / MSS_BYTES), None)

#: The testbed switch (Section VI-B, KB -> packets) and its direction
#: deadband per :data:`~repro.sim.protocols.PROTOCOLS` name; a name
#: without a row keeps its simulation scheme on the testbed.
TESTBED: Dict[str, Tuple[MarkingParams, Optional[float]]] = {
    "dctcp": _TESTBED_DCTCP,
    "dt-dctcp": (
        DoubleThresholdParams(k1=28 * KB / MSS_BYTES, k2=34 * KB / MSS_BYTES),
        TESTBED_DEADBAND,
    ),
    "ecn-reno": _TESTBED_DCTCP,
    "cubic": _TESTBED_DCTCP,
}


@dataclasses.dataclass(frozen=True)
class ProtocolConfig:
    """One (marking mechanism, sender) pair under test."""

    name: str
    marker_factory: Callable[[], Marker]
    sender_cls: Type[TcpSender]

    def __repr__(self) -> str:
        return f"ProtocolConfig({self.name})"


def _config(
    name: str, scheme: Optional[MarkingParams], deadband: Optional[float] = None
) -> ProtocolConfig:
    return ProtocolConfig(
        name=name.upper(),
        marker_factory=(
            NullMarker if scheme is None else lambda: scheme.marker(deadband)
        ),
        sender_cls=PROTOCOLS[name].sender_cls,
    )


def dctcp_sim(k: float = 40.0) -> ProtocolConfig:
    """DCTCP with the simulation-section threshold (packets)."""
    return _config("dctcp", SingleThresholdParams(k=k))


def dt_dctcp_sim(k1: float = 30.0, k2: float = 50.0) -> ProtocolConfig:
    """DT-DCTCP with the simulation-section thresholds (packets)."""
    return _config(
        "dt-dctcp", DoubleThresholdParams(k1=k1, k2=k2), deadband=SIM_DEADBAND
    )


def dctcp_testbed() -> ProtocolConfig:
    """DCTCP with the testbed threshold (K = 32 KB -> packets)."""
    return paper_config("dctcp", testbed=True)


def dt_dctcp_testbed() -> ProtocolConfig:
    """DT-DCTCP with the testbed thresholds (28/34 KB -> packets)."""
    return paper_config("dt-dctcp", testbed=True)


def ecn_red_baseline(
    min_th: float = 20.0, max_th: float = 60.0, max_p: float = 0.1
) -> ProtocolConfig:
    """RED + ECN-Reno: the classic AQM baseline for the mechanism bake-off."""
    return ProtocolConfig(
        name="RED-ECN",
        marker_factory=lambda: REDMarker(min_th=min_th, max_th=max_th, max_p=max_p),
        sender_cls=PROTOCOLS["ecn-reno"].sender_cls,
    )


def paper_config(name: str, testbed: bool = False) -> ProtocolConfig:
    """Table protocol ``name`` on the paper's simulation or testbed switch.

    ``dctcp`` and ``dt-dctcp`` are exactly the named configurations
    above; any other table entry runs its own sender over its table
    scheme (an unmarked protocol gets a DropTail queue).
    """
    scheme, deadband = PROTOCOLS[name].scheme, SIM_DEADBAND
    if testbed:
        scheme, deadband = TESTBED.get(name, (scheme, deadband))
    return _config(name, scheme, deadband)


#: Picklable protocol identifiers for the parallel executor.  A
#: :class:`ProtocolConfig` holds a marker-factory closure and a sender
#: class, neither of which travels across process boundaries; a sweep
#: :class:`~repro.exec.cases.Case` therefore names its protocol by
#: registry id and the worker rebuilds the config locally.  Only
#: default-parameter configurations are registered — a custom-threshold
#: sweep must keep using explicit configs (and sequential execution).
PROTOCOL_REGISTRY = {
    "dctcp-sim": dctcp_sim,
    "dt-dctcp-sim": dt_dctcp_sim,
    "dctcp-testbed": dctcp_testbed,
    "dt-dctcp-testbed": dt_dctcp_testbed,
    "red-ecn": ecn_red_baseline,
}


def protocol_by_id(protocol_id: str) -> ProtocolConfig:
    """The default-parameter :class:`ProtocolConfig` for a registry id."""
    try:
        factory = PROTOCOL_REGISTRY[protocol_id]
    except KeyError:
        raise ValueError(
            f"unknown protocol id {protocol_id!r}; choose from "
            f"{sorted(PROTOCOL_REGISTRY)}"
        ) from None
    return factory()


def group_by_protocol(points: Iterable[_P]) -> Dict[str, List[_P]]:
    """Sweep points keyed by their ``protocol`` display name, order kept."""
    groups: Dict[str, List[_P]] = {}
    for point in points:
        groups.setdefault(point.protocol, []).append(point)  # type: ignore[attr-defined]
    return groups
