#!/usr/bin/env python
"""Quickstart: DCTCP vs DT-DCTCP on one bottleneck, theory and packets.

Runs in a few seconds and walks through the library's three layers:

1. **analysis** — describing functions and the Nyquist stability margin
   for both marking mechanisms (paper Sections IV-V);
2. **fluid model** — integrate the delay-differential system of Eq. 1-3
   and watch the queue limit cycle (Section II-B);
3. **packet simulator** — ten real DCTCP flows through a switch, with
   the bottleneck queue sampled live (Section VI-A).

Run:  python examples/quickstart.py
"""

from repro.core.parameters import paper_dctcp, paper_dt_dctcp, paper_network
from repro.core.stability import analyze, calibrate_gain_scale
from repro.experiments.protocols import dctcp_sim, dt_dctcp_sim
from repro.experiments.tables import print_table
from repro.fluid.integrator import simulate
from repro.fluid.model import fluid_model
from repro.sim.apps.bulk import launch_bulk_flows
from repro.sim.topology import dumbbell
from repro.sim.trace import QueueMonitor


def analysis_layer() -> None:
    """Stability of both mechanisms at N = 55 (near the onset)."""
    print("== 1. Describing-function stability analysis ==\n")
    net = paper_network(55)
    scale = calibrate_gain_scale(paper_network(10), paper_dctcp(), 60)
    rows = []
    for params in (paper_dctcp(), paper_dt_dctcp()):
        report = analyze(net, params, loop_gain_scale=scale)
        rows.append(
            (
                type(params).__name__.replace("Params", ""),
                report.margin,
                report.oscillation_predicted,
                report.predicted_amplitude or "-",
            )
        )
    print_table(
        ["mechanism", "stability margin", "limit cycle?", "amplitude (pkts)"],
        rows,
        title=f"N = {net.n_flows} flows, calibrated gain scale {scale:.2f}",
    )


def fluid_layer() -> None:
    """Integrate Eq. (1)-(3) for both marking laws."""
    print("== 2. Fluid model (delay-differential equations) ==\n")
    net = paper_network(10)
    rows = []
    for name, model in (
        ("DCTCP", fluid_model(net, paper_dctcp())),
        ("DT-DCTCP", fluid_model(net, paper_dt_dctcp())),
    ):
        trace = simulate(model, duration=0.04).after(0.02)
        rows.append(
            (name, trace.mean_queue, trace.std_queue, trace.mean_alpha)
        )
    print_table(
        ["mechanism", "mean queue (pkts)", "std (pkts)", "mean alpha"],
        rows,
        title="Steady state at N = 10, 10 Gbps, RTT 100 us",
    )


def packet_layer() -> None:
    """Ten real flows through the packet-level simulator."""
    print("== 3. Packet-level simulation ==\n")
    rows = []
    for protocol in (dctcp_sim(), dt_dctcp_sim()):
        network = dumbbell(10, protocol.marker_factory)
        flows = launch_bulk_flows(network, sender_cls=protocol.sender_cls)
        monitor = QueueMonitor(
            network.sim, network.bottleneck_queue, interval=10e-6
        )
        monitor.start()
        network.sim.run(until=0.02)
        queue = monitor.series(after=0.008)
        delivered = sum(f.receiver.packets_received for f in flows)
        rows.append(
            (
                protocol.name,
                queue.mean(),
                queue.std(),
                delivered * 1500 * 8 / 0.02 / 1e9,
                network.bottleneck_queue.stats.marked,
            )
        )
    print_table(
        ["protocol", "mean queue", "std", "goodput (Gbps)", "marks"],
        rows,
        title="10 long-lived flows, 10 Gbps bottleneck (20 ms of traffic)",
    )
    print(
        "DT-DCTCP keeps the same goodput with a steadier queue - the "
        "paper's headline result."
    )


def main() -> None:
    analysis_layer()
    fluid_layer()
    packet_layer()


if __name__ == "__main__":
    main()
