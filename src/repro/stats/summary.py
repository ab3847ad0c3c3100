"""Summary statistics used by every experiment table.

Plain functions over numpy arrays, no state.  ``oscillation_amplitude``
matches how the DF analysis measures a limit cycle (half the steady
peak-to-trough swing), and ``tail_latency`` covers Figure 15's
completion-time percentiles.  ``linear_percentile`` reads a percentile
off samples sorted once, so a caller wanting several percentiles of
one sample sorts it once, not once per percentile.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "mean",
    "std",
    "percentile",
    "linear_percentile",
    "tail_latency",
    "oscillation_amplitude",
    "relative_to_baseline",
    "coefficient_of_variation",
    "jain_fairness",
]


def _require_nonempty(values: Sequence[float], what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError(f"{what} requires at least one sample")
    return arr


def _sorted_finite(values: Sequence[float], what: str) -> List[float]:
    """The samples ascending, as Python floats, refusing NaN and ±inf:
    a NaN has no place in a sorted sample, and an inf turns an
    interpolated percentile into NaN."""
    ordered = np.sort(_require_nonempty(values, what)).tolist()
    # np.sort puts NaN last: the two ends show any non-finite sample.
    if not (math.isfinite(ordered[0]) and math.isfinite(ordered[-1])):
        raise ValueError(
            f"{what} samples must be finite, got {ordered[0]} .. {ordered[-1]}"
        )
    return ordered


def linear_percentile(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of non-empty, ascending ``ordered``.

    numpy's default ``linear`` method, bit for bit: the virtual index
    ``v = (n - 1)·(q/100)`` splits into ``lo = floor(v)`` and
    ``t = v - lo``, the last value stands for any ``v >= n - 1``, and
    the interpolation between ``a = ordered[lo]`` and ``b =
    ordered[lo + 1]`` is ``b - (b - a)(1 - t)`` when ``t >= 0.5``, else
    ``a + (b - a)·t`` — the same operations in the same order as
    ``np.percentile``'s lerp, so the same rounding.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must lie in [0, 100], got {q}")
    last = len(ordered) - 1
    v = last * (q / 100.0)
    if v >= last:
        return ordered[last]
    lo = math.floor(v)
    t = v - lo
    a = ordered[lo]
    b = ordered[lo + 1]
    if t >= 0.5:
        return b - (b - a) * (1.0 - t)
    return a + (b - a) * t


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean."""
    return float(np.mean(_require_nonempty(values, "mean")))


def std(values: Sequence[float]) -> float:
    """Population standard deviation (what Figure 11 plots)."""
    return float(np.std(_require_nonempty(values, "std")))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    return linear_percentile(_sorted_finite(values, "percentile"), q)


def tail_latency(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(median, p95, p99)`` of a latency sample."""
    ordered = _sorted_finite(values, "tail_latency")
    return (
        linear_percentile(ordered, 50.0),
        linear_percentile(ordered, 95.0),
        linear_percentile(ordered, 99.0),
    )


def oscillation_amplitude(values: Sequence[float]) -> float:
    """Half the robust peak-to-trough swing (1st..99th percentile).

    Comparable to the DF prediction's amplitude ``X``; the percentile
    clip keeps one stray transient from defining the amplitude.
    """
    arr = _require_nonempty(values, "oscillation_amplitude")
    hi, lo = np.percentile(arr, [99.0, 1.0])
    return float(hi - lo) / 2.0


def relative_to_baseline(values: Sequence[float], baseline: float) -> np.ndarray:
    """Each value as a multiple of ``baseline`` (Figure 10's normalisation)."""
    if baseline == 0:
        raise ValueError("baseline must be nonzero")
    return np.asarray(values, dtype=float) / baseline


def jain_fairness(shares: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n sum x^2)``.

    1.0 for perfectly equal shares, ``1/n`` for a single hog.  Used to
    check that N competing DCTCP flows split the bottleneck evenly.
    """
    arr = _require_nonempty(shares, "jain_fairness")
    if np.any(arr < 0):
        raise ValueError("fairness shares must be nonnegative")
    denom = float(len(arr) * np.sum(arr**2))
    if denom == 0.0:
        raise ValueError("fairness undefined for all-zero shares")
    return float(np.sum(arr) ** 2 / denom)


def coefficient_of_variation(values: Sequence[float]) -> float:
    """std/mean; scale-free oscillation measure used in the ablations."""
    arr = _require_nonempty(values, "coefficient_of_variation")
    m = float(np.mean(arr))
    if m == 0.0:
        raise ValueError("coefficient of variation undefined for zero mean")
    return float(np.std(arr)) / m
