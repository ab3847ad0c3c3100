"""Experiment scaling knobs.

Every experiment module accepts a :class:`Scale`, so the same code backs
the full paper-shaped run (``full_scale``), the CI-speed run
(``quick_scale``), and anything in between.  The *structure* of each
experiment never changes with scale — only durations, repetition counts,
and sweep granularity.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

__all__ = ["Scale", "full_scale", "quick_scale"]


@dataclasses.dataclass(frozen=True)
class Scale:
    """Durations and repetition counts for the experiment harness."""

    #: Steady-state simulation length for queue statistics (seconds).
    sim_duration: float
    #: Transient discarded before statistics (seconds).
    warmup: float
    #: Queue/alpha sampling period (seconds).
    sample_interval: float
    #: Flow counts swept in Figures 10-12.
    flow_counts: Tuple[int, ...]
    #: Queries per configuration in Figures 14-15 (paper: 100).
    n_queries: int
    #: Flow counts swept in Figure 14.
    incast_flows: Tuple[int, ...]
    #: Flow counts swept in Figure 15.
    completion_flows: Tuple[int, ...]
    #: Fluid-model integration length (seconds).
    fluid_duration: float

    def __post_init__(self) -> None:
        if self.warmup >= self.sim_duration:
            raise ValueError(
                f"warmup {self.warmup} must be shorter than duration "
                f"{self.sim_duration}"
            )
        if self.n_queries <= 0:
            raise ValueError(f"n_queries must be positive, got {self.n_queries}")


def full_scale() -> Scale:
    """Paper-shaped sweeps (minutes of wall-clock on one core)."""
    return Scale(
        sim_duration=0.06,
        warmup=0.024,
        sample_interval=20e-6,
        flow_counts=tuple(range(10, 101, 5)),
        n_queries=20,
        incast_flows=tuple(range(8, 49, 2)),
        completion_flows=tuple(range(8, 49, 2)),
        fluid_duration=0.08,
    )


def quick_scale() -> Scale:
    """The scale ``--quick`` prints and tier-1 asserts the paper's claims
    at (``tests/integration/test_experiments.py``): same structure,
    coarser sweeps."""
    return Scale(
        sim_duration=0.02,
        warmup=0.008,
        sample_interval=20e-6,
        flow_counts=(10, 30, 60, 100),
        n_queries=5,
        incast_flows=(16, 30, 34, 35, 36, 38, 40),
        completion_flows=(16, 30, 34, 35, 36, 38, 40),
        fluid_duration=0.04,
    )
