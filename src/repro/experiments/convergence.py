"""Flow convergence and fairness (the paper's TCP-friendliness backdrop).

Section II-A notes DCTCP "is a TCP-friendly protocol"; reference [4]
analyses its convergence.  This extension experiment checks the two
system-level facts the marking change must not break:

* **fairness** — N simultaneous long-lived flows split the bottleneck
  evenly (Jain index near 1);
* **convergence** — a late-joining flow acquires its fair share within
  a bounded time, and an early-leaving flow's share is reabsorbed.

Both mechanisms are run; DT-DCTCP must not sacrifice either property
for its steadier queue.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from repro.experiments.protocols import ProtocolConfig, dctcp_sim, dt_dctcp_sim
from repro.experiments.tables import print_table
from repro.sim.tcp.flow import open_flow
from repro.sim.topology import dumbbell
from repro.stats import jain_fairness

__all__ = ["ConvergenceResult", "run", "main"]


@dataclasses.dataclass(frozen=True)
class ConvergenceResult:
    """Fairness and late-joiner share for one protocol."""

    protocol: str
    #: Jain index across the original flows in steady state.
    steady_fairness: float
    #: Late joiner's throughput share relative to fair share (1.0 = fair).
    joiner_relative_share: float
    #: Aggregate utilisation of the bottleneck (fraction of line rate).
    utilisation: float


def run_protocol(
    protocol: ProtocolConfig,
    n_initial: int = 5,
    join_at: float = 0.01,
    measure_from: float = 0.02,
    duration: float = 0.04,
    bandwidth_bps: float = 10e9,
) -> ConvergenceResult:
    """N flows start together; one more joins at ``join_at``."""
    network = dumbbell(
        n_initial + 1, protocol.marker_factory, bandwidth_bps=bandwidth_bps
    )
    initial = [
        open_flow(host, network.receiver, protocol.sender_cls)
        for host in network.senders[:n_initial]
    ]
    joiner = open_flow(
        network.senders[n_initial], network.receiver, protocol.sender_cls
    )
    for flow in initial:
        flow.start()
    joiner.start(join_at)

    counts_at_measure: List[int] = []

    def snapshot() -> None:
        counts_at_measure.extend(
            f.receiver.packets_received for f in initial + [joiner]
        )

    network.sim.schedule(measure_from, snapshot)
    network.sim.run(until=duration)

    window = duration - measure_from
    final = [f.receiver.packets_received for f in initial + [joiner]]
    rates = [
        (end - start) / window
        for end, start in zip(final, counts_at_measure)
    ]
    initial_rates = rates[:n_initial]
    joiner_rate = rates[n_initial]
    fair_share = sum(rates) / (n_initial + 1)
    utilisation = sum(rates) * 1500 * 8 / bandwidth_bps
    return ConvergenceResult(
        protocol=protocol.name,
        steady_fairness=jain_fairness(initial_rates),
        joiner_relative_share=joiner_rate / fair_share if fair_share else 0.0,
        utilisation=utilisation,
    )


def run() -> Tuple[ConvergenceResult, ConvergenceResult]:
    return run_protocol(dctcp_sim()), run_protocol(dt_dctcp_sim())


def main() -> Tuple[ConvergenceResult, ConvergenceResult]:
    dc, dt = run()
    print_table(
        ["protocol", "Jain fairness", "late joiner share", "utilisation"],
        [
            (dc.protocol, dc.steady_fairness, dc.joiner_relative_share,
             dc.utilisation),
            (dt.protocol, dt.steady_fairness, dt.joiner_relative_share,
             dt.utilisation),
        ],
        title="Convergence & fairness: 5 flows + 1 late joiner, "
        "10 Gbps bottleneck",
    )
    return dc, dt
