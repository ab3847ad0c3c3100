"""Buffer pressure: congestion on other ports steals incast headroom.

The second microbenchmark Section II-A recalls from the DCTCP paper.
A shared-memory switch serves two output ports from one pool:

* **port A** (to the aggregator) carries a synchronized incast of
  64 KB responses;
* **port B** (to a bystander host) carries long-lived background flows.

With DropTail senders the background flows park hundreds of packets on
port B, draining the shared pool, so port A's effective buffer — and
its incast goodput — collapses at a much smaller fan-out.  ECN marking
keeps port B's queue tiny and the pool free: the incast behaves as if
the background traffic did not exist.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.core.marking import NullMarker
from repro.experiments.protocols import (
    ProtocolConfig,
    dctcp_testbed,
    dt_dctcp_testbed,
)
from repro.experiments.tables import print_table
from repro.sim.apps.incast import FanInApp
from repro.sim.buffer_pool import SharedBufferPool
from repro.sim.queues import FifoQueue
from repro.sim.tcp.flow import open_flow
from repro.sim.tcp.sender import RenoSender
from repro.sim.topology import Network

__all__ = ["PressureResult", "run_case", "run", "main"]

KB = 1024


@dataclasses.dataclass(frozen=True)
class PressureResult:
    """Incast performance under one background configuration."""

    background: str
    incast_goodput_bps: float
    incast_timeouts: int
    background_queue_peak_bytes: float
    pool_rejections: int


def _build_shared_switch(
    marker_factory,
    pool: SharedBufferPool,
    n_workers: int = 6,
    bandwidth_bps: float = 1e9,
    per_hop_delay: float = 25e-6,
):
    """One switch, two contended output ports drawing from ``pool``."""
    net = Network()
    switch = net.add_switch("switch")
    aggregator = net.add_host("aggregator")
    bystander = net.add_host("bystander")

    port_a = FifoQueue(
        pool.total_bytes, marker=marker_factory(), name="portA", pool=pool
    )
    port_b = FifoQueue(
        pool.total_bytes, marker=marker_factory(), name="portB", pool=pool
    )
    net.connect(switch, aggregator, bandwidth_bps, per_hop_delay,
                queue_a_to_b=port_a,
                queue_b_to_a=FifoQueue(4e6, name="agg-up"))
    net.connect(switch, bystander, bandwidth_bps, per_hop_delay,
                queue_a_to_b=port_b,
                queue_b_to_a=FifoQueue(4e6, name="bystander-up"))
    workers = []
    for i in range(n_workers):
        worker = net.add_host(f"worker{i}")
        workers.append(worker)
        net.connect(worker, switch, bandwidth_bps, per_hop_delay,
                    queue_a_to_b=FifoQueue(4e6, name=f"w{i}-up"),
                    queue_b_to_a=FifoQueue(4e6, name=f"w{i}-down"))
    net.finalize_routes()
    return net, switch, aggregator, bystander, workers, port_a, port_b


def run_case(
    marking: ProtocolConfig,
    background_sender_cls: Optional[type],
    background_label: str,
    n_incast_flows: int = 20,
    n_background: int = 2,
    pool_bytes: float = 256 * KB,
    n_queries: int = 10,
) -> PressureResult:
    """Incast on port A with/without background flows pressing port B."""
    pool = SharedBufferPool(pool_bytes)
    net, switch, aggregator, bystander, workers, port_a, port_b = (
        _build_shared_switch(marking.marker_factory, pool)
    )

    if background_sender_cls is not None:
        for host in workers[:n_background]:
            open_flow(host, bystander, background_sender_cls).start()

    app = FanInApp(
        aggregator,
        workers[n_background:],
        n_flows=n_incast_flows,
        bytes_per_flow=64 * KB,
        n_queries=n_queries,
        sender_cls=marking.sender_cls,
        initial_cwnd=2,
        start_jitter=50e-6,
        on_done=lambda: net.sim.stop(),
    )
    # Let the background flows establish their standing queue first.
    app.start(delay=0.05)

    peak_b = 0
    sim = net.sim

    def watch_port_b():
        nonlocal peak_b
        peak_b = max(peak_b, port_b.len_bytes)
        if not app.done:
            sim.schedule(200e-6, watch_port_b)

    sim.schedule(0.0, watch_port_b)
    sim.run(until=60.0 * n_queries)
    return PressureResult(
        background=background_label,
        incast_goodput_bps=app.overall_goodput_bps(),
        incast_timeouts=sum(r.timeouts for r in app.results),
        background_queue_peak_bytes=float(peak_b),
        pool_rejections=pool.rejections,
    )


def run() -> List[PressureResult]:
    dctcp = dctcp_testbed()
    dt = dt_dctcp_testbed()
    droptail = ProtocolConfig(
        name="DropTail", marker_factory=lambda: NullMarker(),
        sender_cls=RenoSender,
    )
    return [
        run_case(dctcp, None, "none (DCTCP incast alone)"),
        run_case(droptail, RenoSender, "Reno long flows, DropTail pool"),
        run_case(dctcp, dctcp.sender_cls, "DCTCP long flows"),
        run_case(dt, dt.sender_cls, "DT-DCTCP long flows"),
    ]


def main() -> List[PressureResult]:
    results = run()
    rows = [
        (
            r.background,
            r.incast_goodput_bps / 1e6,
            r.incast_timeouts,
            r.background_queue_peak_bytes / 1024,
            r.pool_rejections,
        )
        for r in results
    ]
    print_table(
        [
            "background traffic",
            "incast goodput (Mbps)",
            "timeouts",
            "port-B peak (KB)",
            "pool rejections",
        ],
        rows,
        title="Buffer pressure: 20-flow incast vs background on a shared "
        "256 KB pool",
    )
    print(
        "DropTail background fills the shared memory and crushes the "
        "incast; marking keeps the pool free."
    )
    return results
