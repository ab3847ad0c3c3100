"""Reference implementations the campaign summary layer is held to.

Until 289c467 ``aggregate_fcts`` called ``np.percentile`` once per
percentile, and the three ``to_dict`` methods of the summary classes
went through ``dataclasses.asdict`` (a recursive deep copy).  Those
bodies are below verbatim, as functions of the summary object;
``test_aggregate_differential.py`` holds the one-pass aggregate and the
direct ``to_dict``s to them bit for bit.

Nothing here is selectable in ``src/``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.campaign.aggregate import PERCENTILES, FctAggregate
from repro.campaign.driver import CampaignResult, CellSummary


def aggregate_fcts(
    fcts: Sequence[float],
    n_started: int,
    percentiles: Sequence[float] = PERCENTILES,
) -> FctAggregate:
    n_completed = len(fcts)
    if n_started < n_completed:
        raise ValueError(
            f"n_started={n_started} < completed sample size {n_completed}"
        )
    n_incomplete = n_started - n_completed
    rate = n_incomplete / n_started if n_started else 0.0

    values: Dict[str, Optional[float]] = {}
    bounds: Dict[str, bool] = {}
    arr = np.asarray(fcts, dtype=float) if n_completed else None
    for q in percentiles:
        key = f"{q:g}"
        if arr is None:
            values[key] = None
            bounds[key] = n_started > 0  # everything censored
        else:
            values[key] = float(np.percentile(arr, q))
            # Identifiable only while the percentile lies inside the
            # uncensored fraction of the distribution.
            bounds[key] = q / 100.0 > 1.0 - rate
    return FctAggregate(
        n_started=n_started,
        n_completed=n_completed,
        n_incomplete=n_incomplete,
        censoring_rate=rate,
        mean=float(arr.mean()) if arr is not None else None,
        percentiles=values,
        lower_bound=bounds,
    )


def fct_aggregate_to_dict(aggregate: FctAggregate) -> Dict[str, Any]:
    return dataclasses.asdict(aggregate)


def cell_summary_to_dict(cell: CellSummary) -> Dict[str, Any]:
    payload = dataclasses.asdict(cell)
    payload["coord"]["protocol"] = cell.coord.protocol
    return payload


def campaign_result_to_dict(result: CampaignResult) -> Dict[str, Any]:
    grid = dataclasses.asdict(result.grid)
    grid["invariants"] = False
    return {
        "grid": grid,
        "cells": [cell_summary_to_dict(cell) for cell in result.cells],
        "complete": result.complete,
    }
