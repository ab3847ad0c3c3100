"""Structured telemetry for an executor run.

Each :meth:`SweepExecutor.run` call appends one :class:`StageStats`;
:class:`RunReport` renders the accumulated rows as a compact text block
(printed after the experiment tables, so the tables themselves stay
byte-identical to a sequential run).

Failure attribution: every case that is given up on (retries exhausted
under a ``skip`` policy, or the terminal error under ``raise``) is
recorded as a :class:`FailureRecord` carrying the originating case's
experiment, label, and cache key, so a partial sweep is auditable and a
resume run knows exactly what it is filling in.
"""

from __future__ import annotations

import dataclasses
from typing import List

__all__ = ["FailureRecord", "RunReport", "StageStats"]


@dataclasses.dataclass(frozen=True)
class FailureRecord:
    """One case the executor gave up on, attributed to its origin.

    ``kind`` is the terminal failure class: ``"exception"`` (the case
    raised), ``"timeout"`` (per-case deadline expired), ``"pool-broken"``
    (the worker process died), or ``"invalid-result"`` (the case
    returned something that is not a result dict).  ``attempts`` counts
    every try including the first.
    """

    stage: str
    experiment: str
    label: str
    case_key: str
    kind: str
    message: str
    attempts: int


@dataclasses.dataclass(frozen=True)
class StageStats:
    """Executor telemetry for one experiment stage."""

    name: str
    cases: int
    cache_hits: int
    executed: int
    wall_seconds: float
    failed: int = 0
    retried: int = 0


class RunReport:
    """Per-stage timing and cache-hit telemetry for one harness run."""

    def __init__(self, jobs: int = 1):
        self.jobs = jobs
        self.stages: List[StageStats] = []
        self.failures: List[FailureRecord] = []

    def add(self, stats: StageStats) -> None:
        self.stages.append(stats)

    def add_failure(self, record: FailureRecord) -> None:
        self.failures.append(record)

    @property
    def total_cases(self) -> int:
        return sum(s.cases for s in self.stages)

    @property
    def total_cache_hits(self) -> int:
        return sum(s.cache_hits for s in self.stages)

    @property
    def total_executed(self) -> int:
        return sum(s.executed for s in self.stages)

    @property
    def total_wall_seconds(self) -> float:
        return sum(s.wall_seconds for s in self.stages)

    def render(self) -> str:
        """Human-readable summary block."""
        lines = [f"===== Executor report (jobs={self.jobs}) ====="]
        if not self.stages:
            lines.append("no executor-managed stages ran")
            return "\n".join(lines)
        name_width = max(len(s.name) for s in self.stages)
        header = (
            f"{'stage':<{name_width}}  {'cases':>5}  {'hits':>5}  "
            f"{'ran':>5}  {'fail':>4}  {'retry':>5}  {'wall':>8}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for s in self.stages:
            lines.append(
                f"{s.name:<{name_width}}  {s.cases:>5}  {s.cache_hits:>5}  "
                f"{s.executed:>5}  {s.failed:>4}  {s.retried:>5}  "
                f"{s.wall_seconds:>7.2f}s"
            )
        lines.append(
            f"total: {self.total_cases} cases, {self.total_cache_hits} cache "
            f"hits, {self.total_executed} executed, "
            f"{self.total_wall_seconds:.2f}s in executor stages"
        )
        if self.failures:
            lines.append(f"failures ({len(self.failures)}):")
            for f in self.failures:
                lines.append(
                    f"  {f.stage} / {f.label}: {f.kind} after "
                    f"{f.attempts} attempt{'s' if f.attempts != 1 else ''}"
                    f" - {f.message}"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"RunReport(jobs={self.jobs}, stages={len(self.stages)}, "
            f"hits={self.total_cache_hits}/{self.total_cases})"
        )
