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
experiment need.  Senders and threshold markers come from the protocol
table (:mod:`repro.sim.protocols`); this module only adds the paper's
numbers.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Type,
    TypeVar,
)

from repro.core.marking import DEFAULT_DIRECTION_DEADBAND, Marker, REDMarker
from repro.sim.packet import MSS_BYTES
from repro.sim.protocols import PROTOCOLS, marker_factory
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
#: single effective threshold.  Explicit, not the table's gap/8 rule:
#: that gives 0.512 for 28/34 KB and would move Figures 14-15.
TESTBED_DEADBAND = 0.5


@dataclasses.dataclass(frozen=True)
class ProtocolConfig:
    """One (marking mechanism, sender) pair under test."""

    name: str
    marker_factory: Callable[[], Marker]
    sender_cls: Type[TcpSender]

    def __repr__(self) -> str:
        return f"ProtocolConfig({self.name})"


def _config(
    name: str, thresholds: Sequence[float], deadband: Optional[float] = None
) -> ProtocolConfig:
    return ProtocolConfig(
        name=name.upper(),
        marker_factory=marker_factory(thresholds, deadband),
        sender_cls=PROTOCOLS[name].sender_cls,
    )


def dctcp_sim(k: float = 40.0) -> ProtocolConfig:
    """DCTCP with the simulation-section threshold (packets)."""
    return _config("dctcp", (k,))


def dt_dctcp_sim(k1: float = 30.0, k2: float = 50.0) -> ProtocolConfig:
    """DT-DCTCP with the simulation-section thresholds (packets)."""
    return _config("dt-dctcp", (k1, k2), deadband=SIM_DEADBAND)


def dctcp_testbed(k_bytes: float = 32 * KB) -> ProtocolConfig:
    """DCTCP with the testbed threshold (K = 32 KB -> packets)."""
    return _config("dctcp", (k_bytes / MSS_BYTES,))


def dt_dctcp_testbed(
    k1_bytes: float = 28 * KB, k2_bytes: float = 34 * KB
) -> ProtocolConfig:
    """DT-DCTCP with the testbed thresholds (28/34 KB -> packets)."""
    return _config(
        "dt-dctcp",
        (k1_bytes / MSS_BYTES, k2_bytes / MSS_BYTES),
        deadband=TESTBED_DEADBAND,
    )


def ecn_red_baseline(
    min_th: float = 20.0, max_th: float = 60.0, max_p: float = 0.1
) -> ProtocolConfig:
    """RED + ECN-Reno: the classic AQM baseline for the ablation benches."""
    return ProtocolConfig(
        name="RED-ECN",
        marker_factory=lambda: REDMarker(min_th=min_th, max_th=max_th, max_p=max_p),
        sender_cls=PROTOCOLS["ecn-reno"].sender_cls,
    )


def paper_config(name: str, testbed: bool = False) -> ProtocolConfig:
    """Table protocol ``name`` at the paper's thresholds for its arity.

    ``dctcp`` and ``dt-dctcp`` are exactly the named configurations
    above; any other table entry gets the same switch with its own
    sender (an unmarked protocol gets a DropTail queue).
    """
    sender_cls, n_thresholds = PROTOCOLS[name]
    if n_thresholds == 2:
        switch = dt_dctcp_testbed() if testbed else dt_dctcp_sim()
    else:
        switch = dctcp_testbed() if testbed else dctcp_sim()
    make_marker = switch.marker_factory if n_thresholds else marker_factory(())
    return ProtocolConfig(name.upper(), make_marker, sender_cls)


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
