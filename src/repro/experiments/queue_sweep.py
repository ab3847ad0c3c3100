"""Figures 10, 11 and 12: one N-sweep, three tables.

One steady-state dumbbell run per (protocol, N) yields the bottleneck
queue's mean and standard deviation and the senders' mean ``alpha``;
Figures 10-12 are three views of the same sweep:

* **Figure 10** — mean queue normalised to each protocol's own N = 10
  baseline; the paper reports DCTCP straying from ~N = 35 (reaching
  1.1-1.83x) while DT-DCTCP stays within 0.94-1.01x until N = 70;
* **Figure 11** — both protocols' queue standard deviations grow with N
  (heavier oscillation), DT-DCTCP's smaller at *every* flow count;
* **Figure 12** — both protocols' alphas grow with N (the network gets
  more congested), DT-DCTCP's consistently below DCTCP's (by ~0.1).

The paper's exact configuration (10 Gbps, RTT 100 us) drives most of the
N = 10..100 sweep into the minimum-window regime — the pipe holds only
``R0*C ~ 83`` packets, so for ``N > ~41`` each flow cannot go below its
1-packet floor without inflating the queue (see EXPERIMENTS.md).  The
runner therefore also supports a "deep pipe" variant (longer RTT) in
which the whole sweep stays ECN-controlled; tier-1 asserts both.

For the parallel executor the sweep is also exposed as a
``cases()``/``run_case()`` pair: every (protocol, N) cell is one
:class:`~repro.exec.cases.Case` carrying only JSON-serialisable
parameters, and because all three printers submit the *same* cases,
the result cache makes Figures 11 and 12 free once Figure 10 has run.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exec.cases import Case
from repro.exec.executor import SweepExecutor, execute_cases
from repro.experiments.config import Scale, full_scale
from repro.experiments.protocols import (
    ProtocolConfig,
    group_by_protocol,
    protocol_by_id,
)
from repro.experiments.tables import print_table
from repro.sim.apps.bulk import launch_bulk_flows
from repro.sim.topology import dumbbell
from repro.sim.trace import AlphaMonitor, QueueMonitor

__all__ = [
    "EXPERIMENT",
    "SWEEP_PROTOCOL_IDS",
    "QueueSweep",
    "SweepPoint",
    "cases",
    "run_case",
    "run_point",
    "run",
    "main_fig10",
    "main_fig11",
    "main_fig12",
]

#: Dotted module name workers import to execute one sweep cell.
EXPERIMENT = "repro.experiments.queue_sweep"

#: The two protocols of the Figures 10-12 sweep, by registry id.
SWEEP_PROTOCOL_IDS = ("dctcp-sim", "dt-dctcp-sim")


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """Steady-state measurements for one (protocol, N) configuration."""

    protocol: str
    n_flows: int
    mean_queue: float
    std_queue: float
    mean_alpha: float
    goodput_bps: float
    timeouts: int
    marks: int
    drops: int


def _measure(
    protocol: ProtocolConfig,
    n_flows: int,
    sim_duration: float,
    warmup: float,
    sample_interval: float,
    bandwidth_bps: float,
    rtt: float,
) -> SweepPoint:
    """One steady-state dumbbell measurement from explicit parameters."""
    network = dumbbell(
        n_flows, protocol.marker_factory, bandwidth_bps=bandwidth_bps, rtt=rtt
    )
    flows = launch_bulk_flows(network, sender_cls=protocol.sender_cls)
    queue_monitor = QueueMonitor(
        network.sim, network.bottleneck_queue, interval=sample_interval
    )
    queue_monitor.start()
    alpha_monitor = AlphaMonitor(
        network.sim,
        [f.sender for f in flows],
        interval=sample_interval * 10,
    )
    alpha_monitor.start()
    network.sim.run(until=sim_duration)

    mean_queue, std_queue = queue_monitor.steady_state(warmup)
    alphas = alpha_monitor.series(after=warmup)
    delivered_packets = sum(f.receiver.packets_received for f in flows)
    return SweepPoint(
        protocol=protocol.name,
        n_flows=n_flows,
        mean_queue=mean_queue,
        std_queue=std_queue,
        # Senders that keep no alpha (the baselines) are never sampled.
        mean_alpha=float(alphas.mean()) if len(alphas) else 0.0,
        goodput_bps=delivered_packets * 1500 * 8.0 / sim_duration,
        timeouts=sum(f.sender.timeouts for f in flows),
        marks=network.bottleneck_queue.stats.marked,
        drops=network.bottleneck_queue.stats.dropped,
    )


def run_point(
    protocol: ProtocolConfig,
    n_flows: int,
    scale: Scale,
    bandwidth_bps: float = 10e9,
    rtt: float = 100e-6,
) -> SweepPoint:
    """One steady-state dumbbell measurement."""
    return _measure(
        protocol,
        n_flows,
        sim_duration=scale.sim_duration,
        warmup=scale.warmup,
        sample_interval=scale.sample_interval,
        bandwidth_bps=bandwidth_bps,
        rtt=rtt,
    )


def cases(
    scale: Scale,
    protocol_ids: Sequence[str] = SWEEP_PROTOCOL_IDS,
    bandwidth_bps: float = 10e9,
    rtt: float = 100e-6,
) -> List[Case]:
    """One :class:`Case` per (protocol, N) cell of the sweep."""
    return [
        Case(
            experiment=EXPERIMENT,
            label=f"{pid}/N={n}",
            params={
                "protocol": pid,
                "n_flows": n,
                "bandwidth_bps": bandwidth_bps,
                "rtt": rtt,
                "sim_duration": scale.sim_duration,
                "warmup": scale.warmup,
                "sample_interval": scale.sample_interval,
            },
        )
        for pid in protocol_ids
        for n in scale.flow_counts
    ]


def run_case(case: Case) -> dict:
    """Execute one sweep cell; pure function of ``case.params``."""
    p = case.params
    point = _measure(
        protocol_by_id(p["protocol"]),
        n_flows=p["n_flows"],
        sim_duration=p["sim_duration"],
        warmup=p["warmup"],
        sample_interval=p["sample_interval"],
        bandwidth_bps=p["bandwidth_bps"],
        rtt=p["rtt"],
    )
    return dataclasses.asdict(point)


@dataclasses.dataclass(frozen=True)
class QueueSweep:
    """The Figures 10-12 sweep, per protocol display name in N order."""

    points: Dict[str, List[SweepPoint]]

    def baseline(self, protocol: str) -> float:
        """Mean queue at the sweep's first flow count (Figure 10)."""
        return self.points[protocol][0].mean_queue

    def normalized(self, protocol: str) -> List[Tuple[int, float]]:
        base = self.baseline(protocol)
        return [
            (p.n_flows, p.mean_queue / base) for p in self.points[protocol]
        ]

    def max_deviation(self, protocol: str) -> float:
        """Largest |normalised - 1| over the sweep (flatter = better)."""
        return max(abs(v - 1.0) for _, v in self.normalized(protocol))

    def grows_with_n(self, protocol: str, metric: str) -> bool:
        """``std_queue`` (Figure 11) or ``mean_alpha`` (Figure 12) is
        larger at the top of the sweep than at the bottom."""
        pts = self.points[protocol]
        return getattr(pts[-1], metric) > getattr(pts[0], metric)

    def fraction_dt_not_worse(self, slack: float = 1.05) -> float:
        """Share of flow counts where DT-DCTCP's std <= DCTCP's * slack."""
        dc = self.points["DCTCP"]
        dt = self.points["DT-DCTCP"]
        wins = sum(
            1 for a, b in zip(dc, dt) if b.std_queue <= a.std_queue * slack
        )
        return wins / len(dc)

    def fraction_dt_not_higher(self, slack: float = 0.02) -> float:
        """Share of flow counts where DT's alpha <= DCTCP's + slack."""
        dc = self.points["DCTCP"]
        dt = self.points["DT-DCTCP"]
        wins = sum(
            1 for a, b in zip(dc, dt) if b.mean_alpha <= a.mean_alpha + slack
        )
        return wins / len(dc)


def run(
    scale: Optional[Scale] = None,
    rtt: float = 100e-6,
    executor: Optional[SweepExecutor] = None,
    stage: str = "queue sweep",
) -> QueueSweep:
    """Run (or fetch from the executor's cache) the whole sweep."""
    if scale is None:
        scale = full_scale()
    raw = execute_cases(cases(scale, rtt=rtt), executor, stage=stage)
    return QueueSweep(group_by_protocol(SweepPoint(**r) for r in raw))


def main_fig10(
    scale: Optional[Scale] = None, executor: Optional[SweepExecutor] = None
) -> QueueSweep:
    sweep = run(scale, executor=executor, stage="Figure 10")
    dc = dict(sweep.normalized("DCTCP"))
    dt = dict(sweep.normalized("DT-DCTCP"))
    raw_dc = {p.n_flows: p.mean_queue for p in sweep.points["DCTCP"]}
    raw_dt = {p.n_flows: p.mean_queue for p in sweep.points["DT-DCTCP"]}
    rows = [
        (n, raw_dc[n], dc[n], raw_dt[n], dt[n])
        for n in sorted(dc)
    ]
    print_table(
        [
            "N",
            "DCTCP mean (pkts)",
            "DCTCP / baseline",
            "DT-DCTCP mean (pkts)",
            "DT-DCTCP / baseline",
        ],
        rows,
        title="Figure 10 - average queue length vs N "
        "(normalised to each protocol's first point)",
    )
    print(
        f"max |deviation from baseline|: DCTCP "
        f"{sweep.max_deviation('DCTCP'):.2f}, DT-DCTCP "
        f"{sweep.max_deviation('DT-DCTCP'):.2f} (paper: DT-DCTCP flatter)"
    )
    return sweep


def main_fig11(
    scale: Optional[Scale] = None, executor: Optional[SweepExecutor] = None
) -> QueueSweep:
    sweep = run(scale, executor=executor, stage="Figure 11")
    dc = sweep.points["DCTCP"]
    dt = sweep.points["DT-DCTCP"]
    rows = [
        (a.n_flows, a.std_queue, b.std_queue, b.std_queue <= a.std_queue)
        for a, b in zip(dc, dt)
    ]
    print_table(
        ["N", "DCTCP std (pkts)", "DT-DCTCP std (pkts)", "DT smaller"],
        rows,
        title="Figure 11 - queue standard deviation vs N",
    )
    print(
        f"DT-DCTCP not worse at {sweep.fraction_dt_not_worse():.0%} of flow "
        "counts (paper: smaller at every N)"
    )
    return sweep


def main_fig12(
    scale: Optional[Scale] = None, executor: Optional[SweepExecutor] = None
) -> QueueSweep:
    sweep = run(scale, executor=executor, stage="Figure 12")
    dc = sweep.points["DCTCP"]
    dt = sweep.points["DT-DCTCP"]
    rows = [
        (
            a.n_flows,
            a.mean_alpha,
            b.mean_alpha,
            a.mean_alpha - b.mean_alpha,
        )
        for a, b in zip(dc, dt)
    ]
    print_table(
        ["N", "DCTCP alpha", "DT-DCTCP alpha", "difference"],
        rows,
        title="Figure 12 - mean congestion-extent estimate alpha vs N",
    )
    print(
        f"DT-DCTCP alpha not higher at {sweep.fraction_dt_not_higher():.0%} "
        "of flow counts (paper: lower by ~0.1 throughout)"
    )
    return sweep
