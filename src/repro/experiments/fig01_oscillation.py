"""Figure 1: queue oscillation of DCTCP at N = 10 versus N = 100.

The paper observes that with K = 40 packets and g = 1/16 on a 10 Gbps /
100 us bottleneck, the DCTCP queue oscillates mildly at N = 10 but with
"3 or 4 times" the amplitude at N = 100.  This experiment reproduces the
two time series and reports the amplitude and standard-deviation ratios.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from repro.exec.cases import Case
from repro.exec.executor import SweepExecutor, execute_cases
from repro.experiments.config import Scale, full_scale
from repro.experiments.protocols import (
    ProtocolConfig,
    dctcp_sim,
    protocol_by_id,
)
from repro.experiments.tables import print_table, sparkline
from repro.sim.apps.bulk import launch_bulk_flows
from repro.sim.topology import dumbbell
from repro.sim.trace import QueueMonitor
from repro.stats import oscillation_amplitude

__all__ = [
    "EXPERIMENT",
    "OscillationResult",
    "cases",
    "run_case",
    "queue_timeseries",
    "run",
    "main",
]

EXPERIMENT = "repro.experiments.fig01_oscillation"


@dataclasses.dataclass(frozen=True)
class OscillationResult:
    """Queue trace statistics for the two flow counts."""

    n_small: int
    n_large: int
    amplitude_small: float
    amplitude_large: float
    std_small: float
    std_large: float
    trace_small: Tuple[np.ndarray, np.ndarray]
    trace_large: Tuple[np.ndarray, np.ndarray]

    @property
    def amplitude_ratio(self) -> float:
        """How much larger the N-large oscillation is (paper: 3-4x)."""
        if self.amplitude_small == 0:
            return float("inf")
        return self.amplitude_large / self.amplitude_small

    @property
    def std_ratio(self) -> float:
        if self.std_small == 0:
            return float("inf")
        return self.std_large / self.std_small


def queue_timeseries(
    protocol: ProtocolConfig, n_flows: int, scale: Scale
) -> Tuple[np.ndarray, np.ndarray]:
    """``(times, queue_lengths)`` of one steady-state dumbbell run."""
    network = dumbbell(n_flows, protocol.marker_factory)
    launch_bulk_flows(network, sender_cls=protocol.sender_cls)
    monitor = QueueMonitor(
        network.sim, network.bottleneck_queue, interval=scale.sample_interval
    )
    monitor.start()
    network.sim.run(until=scale.sim_duration)
    return monitor.time_series(after=scale.warmup)


def cases(
    scale: Scale = None, n_small: int = 10, n_large: int = 100
) -> List[Case]:
    """One :class:`Case` per panel (flow count) of Figure 1."""
    if scale is None:
        scale = full_scale()
    return [
        Case(
            experiment=EXPERIMENT,
            label=f"dctcp-sim/N={n}",
            params={
                "protocol": "dctcp-sim",
                "n_flows": n,
                "sim_duration": scale.sim_duration,
                "warmup": scale.warmup,
                "sample_interval": scale.sample_interval,
            },
        )
        for n in (n_small, n_large)
    ]


def run_case(case: Case) -> dict:
    """One panel's queue trace; pure function of ``case.params``."""
    p = case.params
    scale = Scale(
        sim_duration=p["sim_duration"],
        warmup=p["warmup"],
        sample_interval=p["sample_interval"],
        flow_counts=(p["n_flows"],),
        n_queries=1,
        incast_flows=(),
        completion_flows=(),
        fluid_duration=p["sim_duration"],
    )
    times, queue = queue_timeseries(
        protocol_by_id(p["protocol"]), p["n_flows"], scale
    )
    return {"times": times.tolist(), "queue": queue.tolist()}


def run(
    scale: Scale = None,
    n_small: int = 10,
    n_large: int = 100,
    executor: Optional[SweepExecutor] = None,
) -> OscillationResult:
    """Reproduce Figure 1's two panels."""
    if scale is None:
        scale = full_scale()
    raw = execute_cases(
        cases(scale, n_small=n_small, n_large=n_large),
        executor,
        stage="Figure 1",
    )
    trace_small, trace_large = (
        (np.asarray(r["times"]), np.asarray(r["queue"])) for r in raw
    )
    return OscillationResult(
        n_small=n_small,
        n_large=n_large,
        amplitude_small=oscillation_amplitude(trace_small[1]),
        amplitude_large=oscillation_amplitude(trace_large[1]),
        std_small=float(np.std(trace_small[1])),
        std_large=float(np.std(trace_large[1])),
        trace_small=trace_small,
        trace_large=trace_large,
    )


def main(
    scale: Scale = None, executor: Optional[SweepExecutor] = None
) -> OscillationResult:
    result = run(scale, executor=executor)
    print_table(
        ["flows", "queue amplitude (pkts)", "queue std (pkts)"],
        [
            (result.n_small, result.amplitude_small, result.std_small),
            (result.n_large, result.amplitude_large, result.std_large),
        ],
        title="Figure 1 - DCTCP queue oscillation grows with the flow count",
    )
    print(
        f"amplitude ratio N={result.n_large} vs N={result.n_small}: "
        f"{result.amplitude_ratio:.2f}x (paper: 3-4x); "
        f"std ratio: {result.std_ratio:.2f}x"
    )
    print(f"queue, N={result.n_small:<3d} {sparkline(result.trace_small[1])}")
    print(f"queue, N={result.n_large:<3d} {sparkline(result.trace_large[1])}")
    return result
