"""The protocol table: every name a user can pass for a protocol.

A protocol is a sender and the marking scheme its switch runs at the
paper's simulation settings — DCTCP's relay at ``K = 40``, DT-DCTCP's
hysteresis between ``K1 = 30`` and ``K2 = 50``, or ``None`` for a plain
DropTail queue.  The scheme object (:mod:`repro.core.marking`) is where
thresholds, switch marker, describing function and display label are
declared; :data:`PROTOCOLS` is the only place a name is bound to a
sender and a scheme.  ``CampaignGrid(senders=)``, the CLI's
``--protocol``/``--senders``, ``analyze`` and the paper configurations
in :mod:`repro.experiments.protocols` all look names up here, so adding
an entry is the whole of adding a protocol to them.

A campaign names its marking by the ``thresholds`` axis, so there the
protocol name picks the sender only (``dctcp`` over ``(30, 50)`` is
DT-DCTCP).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Type

from repro.core.marking import MarkingParams
from repro.core.parameters import paper_dctcp, paper_dt_dctcp
from repro.sim.tcp.cubic import CubicSender
from repro.sim.tcp.sender import (
    DctcpSender,
    EcnRenoSender,
    RenoSender,
    TcpSender,
)

__all__ = ["PROTOCOLS", "Protocol"]


class Protocol(NamedTuple):
    """One protocol under test."""

    sender_cls: Type[TcpSender]
    #: The paper's marking scheme for the switch; ``None`` = no ECN
    #: marking (a DropTail queue).
    scheme: Optional[MarkingParams]


PROTOCOLS: Dict[str, Protocol] = {
    "dctcp": Protocol(DctcpSender, paper_dctcp()),
    # The sender is identical to DCTCP's; the switch differs.
    "dt-dctcp": Protocol(DctcpSender, paper_dt_dctcp()),
    "ecn-reno": Protocol(EcnRenoSender, paper_dctcp()),
    "reno": Protocol(RenoSender, None),
    # Rides the same marking fabric but reacts to loss, not marks.
    "cubic": Protocol(CubicSender, paper_dctcp()),
}
