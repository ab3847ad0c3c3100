"""Figure 14: incast throughput collapse, DCTCP versus DT-DCTCP.

Each worker responds to the aggregator with 64 KB, all simultaneously,
on the Figure 13 testbed (1 Gbps, 128 KB marking buffer at the core
switch's aggregator port).  Sweeping the number of synchronized flows,
goodput stays near line rate until buffer overflow causes full-window
losses and 200 ms retransmission timeouts — the collapse.  The paper
reports DCTCP collapsing at 32 flows and DT-DCTCP surviving to 37.

Collapse detection: the first flow count whose goodput drops below half
of line rate.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exec.cases import Case
from repro.exec.executor import SweepExecutor, execute_cases
from repro.experiments.config import Scale, full_scale
from repro.experiments.protocols import (
    ProtocolConfig,
    dctcp_testbed,
    dt_dctcp_testbed,
    group_by_protocol,
    protocol_by_id,
)
from repro.experiments.tables import print_table
from repro.sim.apps.incast import FanInApp
from repro.sim.topology import paper_testbed

__all__ = [
    "EXPERIMENT",
    "IncastPoint",
    "IncastResult",
    "cases",
    "run_case",
    "run_incast_point",
    "run",
    "main",
]

EXPERIMENT = "repro.experiments.fig14_incast"

#: The two testbed protocols swept in Figures 14-15, by registry id.
TESTBED_PROTOCOL_IDS = ("dctcp-testbed", "dt-dctcp-testbed")

KB = 1024

#: Initial congestion window for the testbed experiments (RFC 3390-era
#: kernels); keeps the synchronized first-RTT burst below the 128 KB
#: buffer until the steady-state dynamics, not the cold start, decide
#: the collapse point.
TESTBED_INITIAL_CWND = 2.0
#: Request fan-out spread: the aggregator's queries leave its NIC
#: back-to-back, so workers do not start at literally the same instant.
TESTBED_START_JITTER = 50e-6


@dataclasses.dataclass(frozen=True)
class IncastPoint:
    """One (protocol, flow count) incast measurement."""

    protocol: str
    n_flows: int
    goodput_bps: float
    queries: int
    queries_with_timeouts: int
    total_timeouts: int


@dataclasses.dataclass(frozen=True)
class IncastResult:
    """The full Figure 14 sweep."""

    points: Dict[str, List[IncastPoint]]
    line_rate_bps: float

    def collapse_flows(self, protocol: str) -> Optional[int]:
        """First flow count with goodput below half of line rate."""
        for point in self.points[protocol]:
            if point.goodput_bps < 0.5 * self.line_rate_bps:
                return point.n_flows
        return None


def run_incast_point(
    protocol: ProtocolConfig,
    n_flows: int,
    n_queries: int,
    response_bytes: int = 64 * KB,
    bandwidth_bps: float = 1e9,
) -> IncastPoint:
    testbed = paper_testbed(protocol.marker_factory, bandwidth_bps=bandwidth_bps)
    app = FanInApp(
        testbed.aggregator,
        testbed.workers,
        n_flows=n_flows,
        bytes_per_flow=response_bytes,
        n_queries=n_queries,
        sender_cls=protocol.sender_cls,
        initial_cwnd=TESTBED_INITIAL_CWND,
        start_jitter=TESTBED_START_JITTER,
    )
    app.start()
    # Generous horizon: collapsed queries serialise multiple 200 ms RTOs.
    testbed.sim.run(until=60.0 * n_queries)
    return IncastPoint(
        protocol=protocol.name,
        n_flows=n_flows,
        goodput_bps=app.overall_goodput_bps(),
        queries=len(app.results),
        queries_with_timeouts=sum(1 for r in app.results if r.timeouts > 0),
        total_timeouts=sum(r.timeouts for r in app.results),
    )


def cases(
    scale: Scale = None,
    flow_counts: Sequence[int] = None,
    bandwidth_bps: float = 1e9,
) -> List[Case]:
    """One :class:`Case` per (protocol, fan-out) incast cell."""
    if scale is None:
        scale = full_scale()
    if flow_counts is None:
        flow_counts = scale.incast_flows
    return [
        Case(
            experiment=EXPERIMENT,
            label=f"{pid}/flows={n}",
            params={
                "protocol": pid,
                "n_flows": n,
                "n_queries": scale.n_queries,
                "response_bytes": 64 * KB,
                "bandwidth_bps": bandwidth_bps,
            },
        )
        for pid in TESTBED_PROTOCOL_IDS
        for n in flow_counts
    ]


def run_case(case: Case) -> dict:
    """Execute one incast cell; pure function of ``case.params``."""
    p = case.params
    point = run_incast_point(
        protocol_by_id(p["protocol"]),
        p["n_flows"],
        p["n_queries"],
        response_bytes=p["response_bytes"],
        bandwidth_bps=p["bandwidth_bps"],
    )
    return dataclasses.asdict(point)


def run(
    scale: Scale = None,
    flow_counts: Sequence[int] = None,
    bandwidth_bps: float = 1e9,
    executor: Optional[SweepExecutor] = None,
) -> IncastResult:
    if scale is None:
        scale = full_scale()
    if flow_counts is None:
        flow_counts = scale.incast_flows
    raw = execute_cases(
        cases(scale, flow_counts, bandwidth_bps=bandwidth_bps),
        executor,
        stage="Figure 14",
    )
    points = group_by_protocol(IncastPoint(**r) for r in raw)
    return IncastResult(points=points, line_rate_bps=bandwidth_bps)


def main(
    scale: Scale = None, executor: Optional[SweepExecutor] = None
) -> IncastResult:
    result = run(scale, executor=executor)
    dc = result.points["DCTCP"]
    dt = result.points["DT-DCTCP"]
    rows: List[Tuple[object, ...]] = [
        (
            a.n_flows,
            a.goodput_bps / 1e6,
            a.queries_with_timeouts,
            b.goodput_bps / 1e6,
            b.queries_with_timeouts,
        )
        for a, b in zip(dc, dt)
    ]
    print_table(
        [
            "flows",
            "DCTCP goodput (Mbps)",
            "DCTCP bad queries",
            "DT-DCTCP goodput (Mbps)",
            "DT-DCTCP bad queries",
        ],
        rows,
        title="Figure 14 - incast throughput collapse (64 KB per worker)",
    )
    dc_collapse = result.collapse_flows("DCTCP")
    dt_collapse = result.collapse_flows("DT-DCTCP")
    print(
        f"collapse point: DCTCP at {dc_collapse} flows, DT-DCTCP at "
        f"{dt_collapse} flows (paper: 32 vs 37 - DT-DCTCP postpones collapse)"
    )
    return result
