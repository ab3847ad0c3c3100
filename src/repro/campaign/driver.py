"""Campaign driver: grid -> executor -> censoring-aware cell summaries.

:func:`run_campaign` expands a :class:`~repro.campaign.grid.CampaignGrid`
into cases, runs them through a
:class:`~repro.exec.executor.SweepExecutor` (inheriting its retries,
timeouts, checkpoint-resume, and content-addressed cache), pools the
seed replicates of every cell, and returns a :class:`CampaignResult`.

Partial sweeps are first-class: under a ``skip`` failure policy a
failed case leaves a ``None`` hole, which here becomes a missing seed
on its cell — the cell still aggregates over the seeds that did land,
``missing_seeds`` says which are absent, and a resume run (same cache)
re-executes only those.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.campaign.aggregate import FctAggregate, aggregate_fcts
from repro.campaign.grid import CampaignGrid, CellCoord
from repro.exec.executor import SweepExecutor, execute_cases

__all__ = ["CellSummary", "CampaignResult", "run_campaign"]


def _pkts(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.1f}"


@dataclasses.dataclass(frozen=True)
class CellSummary:
    """One grid cell, seeds pooled."""

    coord: CellCoord
    fct: FctAggregate
    #: FCTs normalised by the cell's ideal base FCT (unloaded RTT plus
    #: access-link serialisation): the slowdown distribution.  Computed
    #: here from the raw samples — never inside cells — so it costs
    #: nothing in cache keys or cached payloads.
    fct_slowdown: FctAggregate
    #: Seeds whose case failed (or was skipped); empty when complete.
    missing_seeds: Tuple[int, ...]
    #: Time-average bottleneck queue, averaged over available seeds
    #: (None when no seed landed).
    mean_queue_pkts: Optional[float]
    #: Queue-oscillation amplitude: per-seed stddev of the bottleneck
    #: occupancy, averaged over available seeds (the paper's headline
    #: stability metric; None when no seed landed).
    std_queue_pkts: Optional[float]
    fabric_marks: int
    fabric_drops: int
    incast_timeouts: int
    #: Packets the fault layer consumed (0 outside chaos scenarios).
    chaos_drops: int

    @property
    def complete(self) -> bool:
        return not self.missing_seeds

    def to_dict(self) -> Dict[str, Any]:
        # Shallow copies suffice: every field but the aggregates is
        # immutable.  ``protocol`` is the coordinate's last field, so it
        # stays the last key of ``coord``.
        payload = dict(vars(self))
        payload["coord"] = dict(vars(self.coord))
        payload["fct"] = self.fct.to_dict()
        payload["fct_slowdown"] = self.fct_slowdown.to_dict()
        return payload


@dataclasses.dataclass(frozen=True)
class CampaignResult:
    """The whole campaign: one summary per cell, in grid order."""

    grid: CampaignGrid
    cells: List[CellSummary]

    @property
    def complete(self) -> bool:
        return all(cell.complete for cell in self.cells)

    def to_dict(self) -> Dict[str, Any]:
        grid = dict(vars(self.grid))
        # Frozen output key: the grid option it recorded is gone (every
        # cell audits itself), but aggregates and the ledger's
        # ``result_digest`` cover this JSON byte for byte, so the key
        # keeps the one value every committed result carries.
        grid["invariants"] = False
        return {
            "grid": grid,
            "cells": [cell.to_dict() for cell in self.cells],
            "complete": self.complete,
        }

    def table_rows(self) -> List[Tuple]:
        """Rows for :func:`repro.experiments.tables.print_table`."""
        rows = []
        for cell in self.cells:
            fct = cell.fct
            flows = f"{fct.n_completed}/{fct.n_started}"
            if cell.missing_seeds:
                flows += f" ({len(cell.missing_seeds)} seed(s) missing)"
            rows.append(
                (
                    cell.coord.protocol,
                    cell.coord.scenario,
                    f"{cell.coord.load:g}",
                    cell.coord.fan_in,
                    flows,
                    f"{fct.censoring_rate:.1%}",
                    fct.describe("50"),
                    fct.describe("95"),
                    fct.describe("99"),
                    cell.fct_slowdown.describe("99", scale=1.0, unit="x"),
                    _pkts(cell.mean_queue_pkts),
                    _pkts(cell.std_queue_pkts),
                )
            )
        return rows


def run_campaign(
    grid: CampaignGrid,
    executor: Optional[SweepExecutor] = None,
    stage: str = "campaign",
) -> CampaignResult:
    """Run every cell of ``grid`` and aggregate seeds per cell."""
    cases = grid.expand()
    raw = execute_cases(cases, executor, stage=stage)

    # Ideal base FCT of one short flow on an unloaded fabric: 4 hops out
    # + 4 back at the per-hop propagation delay, plus serialising the
    # flow at the access rate.  The slowdown denominator for every cell
    # of the grid (the fabric shape is a grid constant, not an axis).
    base_fct = (
        8.0 * grid.per_hop_delay
        + grid.flow_bytes * 8.0 / grid.host_bandwidth_bps
    )

    cells: List[CellSummary] = []
    n_seeds = len(grid.seeds)
    for cell_idx, coord in enumerate(grid.coords()):
        block = raw[cell_idx * n_seeds : (cell_idx + 1) * n_seeds]
        missing = tuple(
            seed for seed, result in zip(grid.seeds, block) if result is None
        )
        landed = [result for result in block if result is not None]
        fcts: List[float] = []
        started = 0
        for result in landed:
            fcts.extend(result["fcts"])
            started += result["flows_started"]
        cells.append(
            CellSummary(
                coord=coord,
                fct=aggregate_fcts(fcts, started),
                fct_slowdown=aggregate_fcts(
                    np.asarray(fcts, dtype=float) / base_fct, started
                ),
                missing_seeds=missing,
                mean_queue_pkts=(
                    sum(r["mean_queue_pkts"] for r in landed) / len(landed)
                    if landed
                    else None
                ),
                # .get: cached payloads from before the chaos PR carry
                # neither key; they aggregate as 0 rather than erroring.
                std_queue_pkts=(
                    sum(r.get("std_queue_pkts", 0.0) for r in landed)
                    / len(landed)
                    if landed
                    else None
                ),
                fabric_marks=sum(r["fabric_marks"] for r in landed),
                fabric_drops=sum(r["fabric_drops"] for r in landed),
                incast_timeouts=sum(r["incast_timeouts"] for r in landed),
                chaos_drops=sum(
                    r.get("chaos_drops", 0) for r in landed
                ),
            )
        )
    return CampaignResult(grid=grid, cells=cells)
