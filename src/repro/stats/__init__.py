"""Statistics toolkit for the experiment harness."""

from repro.stats.summary import (
    coefficient_of_variation,
    jain_fairness,
    linear_percentile,
    mean,
    oscillation_amplitude,
    percentile,
    relative_to_baseline,
    std,
    tail_latency,
)
from repro.stats.timeseries import (
    autocorrelation,
    crossings,
    dominant_frequency,
    time_weighted_mean,
    time_weighted_std,
)

__all__ = [
    "autocorrelation",
    "coefficient_of_variation",
    "crossings",
    "dominant_frequency",
    "jain_fairness",
    "linear_percentile",
    "mean",
    "oscillation_amplitude",
    "percentile",
    "relative_to_baseline",
    "std",
    "tail_latency",
    "time_weighted_mean",
    "time_weighted_std",
]
