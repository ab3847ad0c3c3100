"""The protocol table: every name a user can pass for a protocol.

A protocol is a sender and the number of marking thresholds its switch
takes — ``K`` for DCTCP's relay, ``(K1, K2)`` for DT-DCTCP's hysteresis,
none for a plain DropTail queue.  :data:`PROTOCOLS` is the only place a
name is bound to either; ``CampaignGrid(senders=)``, the CLI's
``--protocol``/``--senders`` and the paper configurations in
:mod:`repro.experiments.protocols` all look names up here, so adding an
entry is the whole of adding a scheme to them.

A campaign names its marking by the ``thresholds`` axis, so there the
protocol name picks the sender only (``dctcp`` over ``(30, 50)`` is
DT-DCTCP).
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Sequence, Type

from repro.core.marking import (
    DEFAULT_DIRECTION_DEADBAND,
    DoubleThresholdMarker,
    Marker,
    NullMarker,
    SingleThresholdMarker,
)
from repro.sim.tcp.cubic import CubicSender
from repro.sim.tcp.sender import (
    DctcpSender,
    EcnRenoSender,
    RenoSender,
    TcpSender,
)

__all__ = ["PROTOCOLS", "Protocol", "marker_factory", "threshold_label"]


class Protocol(NamedTuple):
    """One scheme under test."""

    sender_cls: Type[TcpSender]
    #: Marking thresholds the switch takes: 1 = ``K``, 2 = ``(K1, K2)``,
    #: 0 = no ECN marking (thresholds, if given, are ignored).
    n_thresholds: int


PROTOCOLS: Dict[str, Protocol] = {
    "dctcp": Protocol(DctcpSender, 1),
    # The sender is identical to DCTCP's; the switch differs.
    "dt-dctcp": Protocol(DctcpSender, 2),
    "ecn-reno": Protocol(EcnRenoSender, 1),
    "reno": Protocol(RenoSender, 0),
    # Rides the same marking fabric but reacts to loss, not marks.
    "cubic": Protocol(CubicSender, 1),
}


def marker_factory(
    thresholds: Sequence[float], deadband: Optional[float] = None
) -> Callable[[], Marker]:
    """A fresh-marker factory for ``()``, ``(K,)`` or ``(K1, K2)``.

    ``deadband`` is DT-DCTCP's direction deadband in packets; left unset
    it is the default capped at an eighth of the gap, so narrow
    hysteresis bands do not degenerate into a single threshold.
    """
    if not thresholds:
        return NullMarker
    if len(thresholds) == 1:
        (k,) = thresholds
        return lambda: SingleThresholdMarker.from_threshold(k)
    k1, k2 = thresholds
    if deadband is None:
        deadband = min(DEFAULT_DIRECTION_DEADBAND, (k2 - k1) / 8.0)
    return lambda: DoubleThresholdMarker.from_thresholds(
        k1, k2, deadband=deadband
    )


def threshold_label(thresholds: Sequence[float]) -> str:
    """Display name for one marking configuration."""
    if len(thresholds) == 1:
        return f"K={thresholds[0]:g}"
    return f"K1={thresholds[0]:g},K2={thresholds[1]:g}"
