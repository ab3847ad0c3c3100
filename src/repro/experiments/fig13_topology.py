"""Figure 13: the testbed topology, built and verified.

The paper's Figure 13 is a diagram; this module constructs it and
prints the inventory a reader would check against the figure — switch
and host counts, per-port buffer sizes, link rates, and the measured
no-load RTT between two hosts on the same leaf (the paper: ~100 us).
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from repro.core.marking import NullMarker
from repro.experiments.tables import print_table
from repro.sim.packet import ACK_BYTES, MSS_BYTES, Packet
from repro.sim.topology import TestbedNetwork, paper_testbed

__all__ = ["TopologySummary", "measure_intra_leaf_rtt", "run", "main"]


@dataclasses.dataclass(frozen=True)
class TopologySummary:
    """Checkable facts about the constructed Figure 13 network."""

    n_switches: int
    n_hosts: int
    bottleneck_buffer_bytes: float
    leaf_buffer_bytes: float
    link_rate_bps: float
    intra_leaf_rtt: float
    links: List[Tuple[str, str]]


def measure_intra_leaf_rtt(testbed: TestbedNetwork) -> float:
    """Ping-pong one packet between two workers on the same leaf."""
    a, b = testbed.workers[0], testbed.workers[1]
    done: List[float] = []

    class Echo:
        def on_packet(self, packet):
            done.append(testbed.sim.now)

    class Reflect:
        def on_packet(self, packet):
            b.send(
                Packet(flow_id=999, src=b.node_id, dst=a.node_id, seq=0,
                       size_bytes=ACK_BYTES)
            )

    a.register_endpoint(999, Echo())
    b.register_endpoint(999, Reflect())
    start = testbed.sim.now
    a.send(
        Packet(flow_id=999, src=a.node_id, dst=b.node_id, seq=0,
               size_bytes=MSS_BYTES)
    )
    testbed.sim.run()
    a.unregister_endpoint(999)
    b.unregister_endpoint(999)
    if not done:
        raise RuntimeError("ping-pong packet never returned")
    return done[0] - start


def run() -> TopologySummary:
    testbed = paper_testbed(lambda: NullMarker())
    network = testbed.network
    switches = [testbed.core_switch, *testbed.leaf_switches]
    hosts = [testbed.aggregator, *testbed.workers]
    node_names = {n.node_id: n.name for n in network.nodes}
    links = sorted(
        {
            tuple(sorted((node_names[a], node_names[b])))
            for a, b in network.adjacency
        }
    )
    leaf_up = network.interface_between(
        testbed.leaf_switches[0].node_id, testbed.core_switch.node_id
    )
    return TopologySummary(
        n_switches=len(switches),
        n_hosts=len(hosts),
        bottleneck_buffer_bytes=testbed.bottleneck_queue.capacity_bytes,
        leaf_buffer_bytes=leaf_up.queue.capacity_bytes,
        link_rate_bps=leaf_up.bandwidth_bps,
        intra_leaf_rtt=measure_intra_leaf_rtt(testbed),
        links=[(a, b) for a, b in links],
    )


def main() -> TopologySummary:
    summary = run()
    print_table(
        ["fact", "paper", "built"],
        [
            ("switches", 4, summary.n_switches),
            ("hosts", 10, summary.n_hosts),
            ("link rate (Gbps)", 1, summary.link_rate_bps / 1e9),
            ("marking port buffer (KB)", 128,
             summary.bottleneck_buffer_bytes / 1024),
            ("DropTail buffers (KB)", 512, summary.leaf_buffer_bytes / 1024),
            ("intra-leaf RTT (us)", "~100",
             round(summary.intra_leaf_rtt * 1e6, 1)),
            ("links", 13, len(summary.links)),
        ],
        title="Figure 13 - testbed topology inventory",
    )
    return summary
