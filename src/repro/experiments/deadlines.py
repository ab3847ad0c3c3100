"""Deadline-aware transport: D2TCP versus DCTCP under mixed deadlines.

The introduction of the reproduced paper positions D2TCP as the
deadline-aware protocol built on DCTCP; this extension experiment
replays D2TCP's motivating scenario on our substrate.  A group of
transfers with *tight* deadlines competes against a group with *loose*
deadlines through one marking bottleneck:

* DCTCP cuts every flow by the same ``alpha/2`` — deadline-blind;
* D2TCP gamma-corrects the penalty (``alpha^d``), so far-deadline flows
  back off harder and near-deadline flows push through.

Reported per protocol: tight-group deadline misses and both groups'
completion times.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Type

from repro.core.marking import SingleThresholdMarker
from repro.experiments.tables import print_table
from repro.sim.packet import MSS_BYTES
from repro.sim.tcp.d2tcp import D2tcpSender
from repro.sim.tcp.flow import open_flow
from repro.sim.tcp.sender import DctcpSender, TcpSender
from repro.sim.topology import dumbbell

__all__ = ["DeadlineResult", "run_protocol", "run", "main"]


@dataclasses.dataclass(frozen=True)
class DeadlineResult:
    """Deadline outcomes for one protocol."""

    protocol: str
    tight_met: int
    tight_total: int
    loose_met: int
    loose_total: int
    tight_mean_fct: float
    loose_mean_fct: float


def run_protocol(
    sender_cls: Type[TcpSender],
    label: str,
    n_tight: int = 3,
    n_loose: int = 5,
    transfer_bytes: int = 2 * 1024 * 1024,
    tight_deadline: float = 0.011,
    loose_deadline: float = 1.0,
    bandwidth_bps: float = 10e9,
    threshold: float = 40.0,
) -> DeadlineResult:
    """All transfers start together; deadlines differ per group."""
    network = dumbbell(
        n_tight + n_loose,
        lambda: SingleThresholdMarker.from_threshold(threshold),
        bandwidth_bps=bandwidth_bps,
    )
    packets = max(1, transfer_bytes // MSS_BYTES)
    completions: Dict[int, float] = {}
    flows = []
    for i, host in enumerate(network.senders):
        tight = i < n_tight
        kwargs = {}
        if sender_cls is D2tcpSender:
            kwargs["deadline"] = tight_deadline if tight else loose_deadline
        flow = open_flow(
            host,
            network.receiver,
            sender_cls,
            total_packets=packets,
            on_complete=lambda t, idx=i: completions.__setitem__(idx, t),
            **kwargs,
        )
        flow.start()
        flows.append(flow)
    network.sim.run(until=5.0)

    tight_fcts = [completions[i] for i in range(n_tight) if i in completions]
    loose_fcts = [
        completions[i]
        for i in range(n_tight, n_tight + n_loose)
        if i in completions
    ]
    tight_met = sum(1 for t in tight_fcts if t <= tight_deadline)
    loose_met = sum(1 for t in loose_fcts if t <= loose_deadline)
    return DeadlineResult(
        protocol=label,
        tight_met=tight_met,
        tight_total=n_tight,
        loose_met=loose_met,
        loose_total=n_loose,
        tight_mean_fct=sum(tight_fcts) / len(tight_fcts),
        loose_mean_fct=sum(loose_fcts) / len(loose_fcts),
    )


def run(**kwargs) -> List[DeadlineResult]:
    return [
        run_protocol(DctcpSender, "DCTCP", **kwargs),
        run_protocol(D2tcpSender, "D2TCP", **kwargs),
    ]


def main() -> List[DeadlineResult]:
    results = run()
    rows = [
        (
            r.protocol,
            f"{r.tight_met}/{r.tight_total}",
            r.tight_mean_fct * 1e3,
            f"{r.loose_met}/{r.loose_total}",
            r.loose_mean_fct * 1e3,
        )
        for r in results
    ]
    print_table(
        [
            "protocol",
            "tight deadlines met",
            "tight mean FCT (ms)",
            "loose deadlines met",
            "loose mean FCT (ms)",
        ],
        rows,
        title="Deadline awareness: 3 tight (11 ms) + 5 loose (1 s) "
        "2 MB transfers on 10 Gbps (fair-share FCT ~13.5 ms: the tight "
        "deadline is infeasible without prioritisation)",
    )
    print(
        "D2TCP trades loose-deadline slack for tight-deadline success - "
        "DCTCP shares blindly."
    )
    return results
