"""Declarative scenario runner: describe an experiment, get statistics.

The library's layers (topology builders, flow constructors, monitors)
compose in a few lines of Python, but repeated studies want a single
data-driven entry point — the role ns-2's OTcl scripts played.  A
:class:`Scenario` captures one dumbbell experiment as plain data:

    spec = Scenario(
        protocol="dt-dctcp",          # a repro.sim.protocols.PROTOCOLS name
        n_flows=10,
        bandwidth_bps=10e9,
        rtt=100e-6,
        duration=0.03,
        warmup=0.012,
        thresholds=(30, 50),          # K for single, (K1, K2) for double
        workload="bulk",              # bulk | incast | partition-aggregate
    )
    result = run_scenario(spec)
    print(result.mean_queue, result.goodput_bps)

``from_dict`` accepts the same fields as a plain dictionary (e.g.
parsed from JSON), making parameter sweeps scriptable from outside
Python.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.sim.apps.bulk import launch_bulk_flows
from repro.sim.apps.incast import FanInApp
from repro.sim.invariants import InvariantWatchdog
from repro.sim.protocols import PROTOCOLS, marker_factory
from repro.sim.tcp.sender import DctcpSender
from repro.sim.topology import dumbbell, paper_testbed
from repro.sim.trace import AlphaMonitor, QueueMonitor

__all__ = ["Scenario", "ScenarioResult", "run_scenario"]

_WORKLOADS = ("bulk", "incast", "partition-aggregate")


def _arm_watchdog(network, enabled: bool, interval: float):
    """An armed :class:`InvariantWatchdog`, or ``None`` when disabled."""
    if not enabled:
        return None
    watchdog = InvariantWatchdog(network)
    watchdog.start(interval)
    return watchdog


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One self-contained experiment description."""

    protocol: str = "dctcp"
    n_flows: int = 10
    bandwidth_bps: float = 10e9
    rtt: float = 100e-6
    duration: float = 0.03
    warmup: float = 0.012
    #: K (scalar) for single-threshold, (K1, K2) for double-threshold.
    thresholds: Tuple[float, ...] = (40.0,)
    workload: str = "bulk"
    #: Workload extras: bytes per incast response / total query bytes.
    transfer_bytes: int = 64 * 1024
    n_queries: int = 5
    delayed_ack_factor: int = 1
    use_sack: bool = False
    g: float = 1.0 / 16.0
    seed: int = 1

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; choose from "
                f"{sorted(PROTOCOLS)}"
            )
        if self.workload not in _WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; choose from "
                f"{_WORKLOADS}"
            )
        if self.warmup >= self.duration:
            raise ValueError("warmup must be shorter than duration")
        wanted = PROTOCOLS[self.protocol].n_thresholds
        if wanted and len(self.thresholds) != wanted:
            raise ValueError(
                f"{self.protocol} needs {wanted} marking threshold(s), "
                f"got thresholds={self.thresholds}"
            )

    @classmethod
    def from_dict(cls, spec: Dict) -> "Scenario":
        """Build from a plain dict (e.g. parsed JSON); unknown keys error."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(spec) - known
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        if "thresholds" in spec:
            spec = dict(spec)
            spec["thresholds"] = tuple(spec["thresholds"])
        return cls(**spec)


@dataclasses.dataclass(frozen=True)
class ScenarioResult:
    """Headline statistics of one scenario run."""

    scenario: Scenario
    mean_queue: float
    std_queue: float
    mean_alpha: Optional[float]
    goodput_bps: float
    drops: int
    marks: int
    timeouts: int
    #: Per-query completion times for query workloads, else empty.
    completion_times: Tuple[float, ...] = ()


def run_scenario(
    scenario: Scenario, invariants: bool = False
) -> ScenarioResult:
    """Build, run and summarise one scenario.

    With ``invariants=True`` an :class:`~repro.sim.invariants.\
InvariantWatchdog` audits the packet-conservation ledgers periodically
    during the run and once after it, raising
    :class:`~repro.sim.invariants.InvariantViolation` on the first
    breach.  The watchdog only *reads* simulator state, so results are
    unchanged; it is off by default because the audit walks every queue.
    """
    sender_cls, n_thresholds = PROTOCOLS[scenario.protocol]
    make_marker = marker_factory(scenario.thresholds[:n_thresholds])
    sender_kwargs = {"use_sack": scenario.use_sack}
    if sender_cls is DctcpSender:
        sender_kwargs["g"] = scenario.g

    if scenario.workload == "bulk":
        network = dumbbell(
            scenario.n_flows,
            make_marker,
            bandwidth_bps=scenario.bandwidth_bps,
            rtt=scenario.rtt,
        )
        flows = launch_bulk_flows(
            network,
            sender_cls=sender_cls,
            delayed_ack_factor=scenario.delayed_ack_factor,
            **sender_kwargs,
        )
        queue = network.bottleneck_queue
        monitor = QueueMonitor(network.sim, queue, interval=20e-6)
        monitor.start()
        alpha_monitor = AlphaMonitor(
            network.sim, [f.sender for f in flows], interval=200e-6
        )
        alpha_monitor.start()
        watchdog = _arm_watchdog(
            network.network, invariants, scenario.duration / 16.0
        )
        network.sim.run(until=scenario.duration)
        if watchdog is not None:
            watchdog.check()
        series = monitor.series(after=scenario.warmup)
        alphas = alpha_monitor.series(after=scenario.warmup)
        delivered = sum(f.receiver.packets_received for f in flows)
        return ScenarioResult(
            scenario=scenario,
            mean_queue=float(series.mean()),
            std_queue=float(series.std()),
            mean_alpha=float(alphas.mean()) if len(alphas) else None,
            goodput_bps=delivered * 1500 * 8 / scenario.duration,
            drops=queue.stats.dropped,
            marks=queue.stats.marked,
            timeouts=sum(f.sender.timeouts for f in flows),
        )

    # Query workloads run on the paper testbed.
    testbed = paper_testbed(
        make_marker, bandwidth_bps=scenario.bandwidth_bps
    )
    if scenario.workload == "incast":
        bytes_per_flow = scenario.transfer_bytes
    else:  # partition-aggregate
        bytes_per_flow = max(1, scenario.transfer_bytes // scenario.n_flows)
    app = FanInApp(
        testbed.aggregator,
        testbed.workers,
        n_flows=scenario.n_flows,
        bytes_per_flow=bytes_per_flow,
        n_queries=scenario.n_queries,
        sender_cls=sender_cls,
        initial_cwnd=2,
        start_jitter=50e-6,
        jitter_seed=scenario.seed,
        on_done=testbed.sim.stop,
        **sender_kwargs,
    )
    queue = testbed.bottleneck_queue
    monitor = QueueMonitor(testbed.sim, queue, interval=20e-6)
    monitor.start()
    app.start()
    watchdog = _arm_watchdog(testbed.network, invariants, 1e-3)
    testbed.sim.run(until=60.0 * scenario.n_queries)
    if watchdog is not None:
        watchdog.check()
    series = monitor.series(after=0.0)
    times = tuple(app.completion_times())
    return ScenarioResult(
        scenario=scenario,
        mean_queue=float(series.mean()) if len(series) else 0.0,
        std_queue=float(series.std()) if len(series) else 0.0,
        mean_alpha=None,
        goodput_bps=app.overall_goodput_bps(),
        drops=queue.stats.dropped,
        marks=queue.stats.marked,
        timeouts=sum(r.timeouts for r in app.results),
        completion_times=times,
    )
