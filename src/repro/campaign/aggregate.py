"""Censoring-aware FCT aggregation for campaign cells.

Flows still in flight when a cell's window closes are right-censored:
their (longest) completion times are missing from the sample.  Hiding
that — computing p99 over the completed flows and presenting it as the
p99 — is exactly the bias the campaign must not have, so every
aggregate carries its censoring bookkeeping and each percentile is
flagged when the censored sample cannot support it.

The rule: with censoring rate ``c`` (incomplete / started), any
percentile above the ``100·(1 - c)`` mark of the *true* FCT
distribution is unidentifiable from the completed sample — the value
computed over completed flows is then only a lower bound.  A cell with
10 % censoring still reports an exact p50 but a lower-bound p95/p99;
rendering marks those values ``>=``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.stats.summary import linear_percentile

__all__ = ["PERCENTILES", "FctAggregate", "aggregate_fcts"]

#: The percentiles every campaign table reports.
PERCENTILES = (50.0, 95.0, 99.0)


@dataclasses.dataclass(frozen=True)
class FctAggregate:
    """Percentile summary of one FCT sample plus censoring facts.

    ``percentiles`` maps "50"/"95"/"99" to the value over *completed*
    flows (None when no flow completed); ``lower_bound`` marks the ones
    the censoring rate makes unidentifiable — their value is a lower
    bound on the truth, not an estimate of it.
    """

    n_started: int
    n_completed: int
    n_incomplete: int
    censoring_rate: float
    mean: Optional[float]
    percentiles: Dict[str, Optional[float]]
    lower_bound: Dict[str, bool]

    def to_dict(self) -> Dict[str, Any]:
        payload = dict(vars(self))
        payload["percentiles"] = dict(self.percentiles)
        payload["lower_bound"] = dict(self.lower_bound)
        return payload

    def describe(self, q: str, scale: float = 1e3, unit: str = "ms") -> str:
        """One percentile as text, honest about censoring (e.g. ``>=3.1ms``)."""
        value = self.percentiles[q]
        if value is None:
            return "n/a"
        prefix = ">=" if self.lower_bound[q] else ""
        return f"{prefix}{value * scale:.3f}{unit}"


def aggregate_fcts(
    fcts: Sequence[float] | np.ndarray,
    n_started: int,
    percentiles: Sequence[float] = PERCENTILES,
) -> FctAggregate:
    """Summarise one (possibly pooled-across-seeds) FCT sample.

    ``n_started`` counts every launched flow, completed or not;
    ``len(fcts)`` flows completed.  ``n_started < len(fcts)`` is a
    caller bug and raises, and so is a NaN or infinite FCT.

    The sample is sorted once and every percentile read off it with
    :func:`~repro.stats.summary.linear_percentile` (``np.percentile``'s
    default method, bit for bit); the mean is numpy's pairwise sum over
    ``n``, which is ``np.mean`` bit for bit.
    """
    n_completed = len(fcts)
    if n_started < n_completed:
        raise ValueError(
            f"n_started={n_started} < completed sample size {n_completed}"
        )
    n_incomplete = n_started - n_completed
    rate = n_incomplete / n_started if n_started else 0.0

    keys = [f"{q:g}" for q in percentiles]
    values: Dict[str, Optional[float]]
    if n_completed:
        arr = np.asarray(fcts, dtype=float)
        ordered = np.sort(arr).tolist()
        # np.sort puts NaN last: the two ends show any non-finite FCT.
        if not (math.isfinite(ordered[0]) and math.isfinite(ordered[-1])):
            raise ValueError(
                f"fcts must be finite, got {ordered[0]} .. {ordered[-1]}"
            )
        mean: Optional[float] = float(np.add.reduce(arr)) / n_completed
        values = {
            key: linear_percentile(ordered, q)
            for key, q in zip(keys, percentiles)
        }
        # Identifiable only while the percentile lies inside the
        # uncensored fraction of the distribution.
        bounds = {
            key: q / 100.0 > 1.0 - rate for key, q in zip(keys, percentiles)
        }
    else:
        mean = None
        values = dict.fromkeys(keys)
        bounds = dict.fromkeys(keys, n_started > 0)  # everything censored
    return FctAggregate(
        n_started=n_started,
        n_completed=n_completed,
        n_incomplete=n_incomplete,
        censoring_rate=rate,
        mean=mean,
        percentiles=values,
        lower_bound=bounds,
    )
