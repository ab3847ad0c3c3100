"""Figure 15: query completion time of the partition-aggregate workload.

The aggregator requests 1 MB total, split evenly over ``n`` workers; the
query completes when the last response byte arrives.  On an uncongested
1 Gbps downlink that takes ~10 ms regardless of ``n``; when incast
timeouts begin, the completion time jumps by roughly one minimum RTO
(200 ms, ~20x).  The paper reports DCTCP's completion time oscillating
from 34 flows and blowing up at 40, while DT-DCTCP climbs smoothly and
survives to 42.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

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
from repro.experiments.fig14_incast import (
    TESTBED_INITIAL_CWND,
    TESTBED_PROTOCOL_IDS,
    TESTBED_START_JITTER,
)
from repro.experiments.tables import print_table
from repro.sim.apps.partition_aggregate import partition_aggregate_app
from repro.sim.topology import paper_testbed
from repro.stats import tail_latency

__all__ = [
    "EXPERIMENT",
    "CompletionPoint",
    "CompletionResult",
    "cases",
    "run_case",
    "run_completion_point",
    "run",
    "main",
]

EXPERIMENT = "repro.experiments.fig15_completion_time"


@dataclasses.dataclass(frozen=True)
class CompletionPoint:
    """Completion-time statistics at one (protocol, fan-out)."""

    protocol: str
    n_flows: int
    mean_time: float
    median_time: float
    p95_time: float
    p99_time: float
    queries_with_timeouts: int
    queries: int


@dataclasses.dataclass(frozen=True)
class CompletionResult:
    """The full Figure 15 sweep."""

    points: Dict[str, List[CompletionPoint]]
    #: Ideal transfer time of 1 MB at line rate (~8.4 ms at 1 Gbps).
    base_time: float

    def blowup_flows(self, protocol: str, factor: float = 5.0) -> Optional[int]:
        """First fan-out whose *mean* completion exceeds factor * base."""
        for point in self.points[protocol]:
            if point.mean_time > factor * self.base_time:
                return point.n_flows
        return None


def run_completion_point(
    protocol: ProtocolConfig,
    n_flows: int,
    n_queries: int,
    bandwidth_bps: float = 1e9,
) -> CompletionPoint:
    testbed = paper_testbed(protocol.marker_factory, bandwidth_bps=bandwidth_bps)
    app = partition_aggregate_app(
        testbed.aggregator,
        testbed.workers,
        n_flows=n_flows,
        n_queries=n_queries,
        sender_cls=protocol.sender_cls,
        initial_cwnd=TESTBED_INITIAL_CWND,
        start_jitter=TESTBED_START_JITTER,
    )
    app.start()
    testbed.sim.run(until=60.0 * n_queries)
    times = app.completion_times()
    median, p95, p99 = tail_latency(times)
    return CompletionPoint(
        protocol=protocol.name,
        n_flows=n_flows,
        mean_time=sum(times) / len(times),
        median_time=median,
        p95_time=p95,
        p99_time=p99,
        queries_with_timeouts=sum(1 for r in app.results if r.timeouts > 0),
        queries=len(app.results),
    )


def cases(
    scale: Scale = None,
    flow_counts: Sequence[int] = None,
    bandwidth_bps: float = 1e9,
) -> List[Case]:
    """One :class:`Case` per (protocol, fan-out) completion cell."""
    if scale is None:
        scale = full_scale()
    if flow_counts is None:
        flow_counts = scale.completion_flows
    return [
        Case(
            experiment=EXPERIMENT,
            label=f"{pid}/flows={n}",
            params={
                "protocol": pid,
                "n_flows": n,
                "n_queries": scale.n_queries,
                "bandwidth_bps": bandwidth_bps,
            },
        )
        for pid in TESTBED_PROTOCOL_IDS
        for n in flow_counts
    ]


def run_case(case: Case) -> dict:
    """Execute one completion cell; pure function of ``case.params``."""
    p = case.params
    point = run_completion_point(
        protocol_by_id(p["protocol"]),
        p["n_flows"],
        p["n_queries"],
        bandwidth_bps=p["bandwidth_bps"],
    )
    return dataclasses.asdict(point)


def run(
    scale: Scale = None,
    flow_counts: Sequence[int] = None,
    bandwidth_bps: float = 1e9,
    total_bytes: int = 1024 * 1024,
    executor: Optional[SweepExecutor] = None,
) -> CompletionResult:
    if scale is None:
        scale = full_scale()
    if flow_counts is None:
        flow_counts = scale.completion_flows
    raw = execute_cases(
        cases(scale, flow_counts, bandwidth_bps=bandwidth_bps),
        executor,
        stage="Figure 15",
    )
    points = group_by_protocol(CompletionPoint(**r) for r in raw)
    return CompletionResult(
        points=points, base_time=total_bytes * 8.0 / bandwidth_bps
    )


def main(
    scale: Scale = None, executor: Optional[SweepExecutor] = None
) -> CompletionResult:
    result = run(scale, executor=executor)
    dc = result.points["DCTCP"]
    dt = result.points["DT-DCTCP"]
    rows = [
        (
            a.n_flows,
            a.mean_time * 1e3,
            a.p99_time * 1e3,
            b.mean_time * 1e3,
            b.p99_time * 1e3,
        )
        for a, b in zip(dc, dt)
    ]
    print_table(
        [
            "flows",
            "DCTCP mean (ms)",
            "DCTCP p99 (ms)",
            "DT-DCTCP mean (ms)",
            "DT-DCTCP p99 (ms)",
        ],
        rows,
        title="Figure 15 - 1 MB partition-aggregate completion time",
    )
    print(
        f"ideal completion ~{result.base_time*1e3:.1f} ms; blow-up point: "
        f"DCTCP at {result.blowup_flows('DCTCP')} flows, DT-DCTCP at "
        f"{result.blowup_flows('DT-DCTCP')} flows "
        "(paper: 40 vs 42, with DCTCP oscillating from 34)"
    )
    return result
