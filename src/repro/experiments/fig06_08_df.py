"""Figures 6 and 8 / Equations 22-23 and 27-28: describing functions.

Validates the closed-form DFs against numeric Fourier integration of the
actual marking waveforms *and* against the live, stateful marker objects
the simulator uses — three independent routes to the same function.
The table reports both mechanisms over a range of oscillation
amplitudes, plus the worst-case disagreement.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.core.describing_function import (
    df_double_threshold,
    df_single_threshold,
    numeric_df_double,
    numeric_df_from_marker,
    numeric_df_single,
)
from repro.core.marking import DoubleThresholdMarker, SingleThresholdMarker
from repro.experiments.tables import print_table

__all__ = ["DfComparison", "run", "main"]


@dataclasses.dataclass(frozen=True)
class DfComparison:
    """Closed form vs numeric vs live-marker DF at one amplitude."""

    mechanism: str
    amplitude: float
    closed_form: complex
    numeric: complex
    live_marker: complex

    @property
    def numeric_error(self) -> float:
        return abs(self.closed_form - self.numeric)

    @property
    def marker_error(self) -> float:
        return abs(self.closed_form - self.live_marker)


def run(
    k: float = 40.0,
    k1: float = 30.0,
    k2: float = 50.0,
    amplitude_ratios=(1.05, 1.2, 1.5, 2.0, 3.0, 5.0),
    n_samples: int = 4096,
) -> List[DfComparison]:
    """Evaluate both DFs over amplitudes ``ratio * (K or K2)``."""
    results = []
    for ratio in amplitude_ratios:
        x = ratio * k
        results.append(
            DfComparison(
                mechanism="DCTCP",
                amplitude=x,
                closed_form=df_single_threshold(x, k),
                numeric=numeric_df_single(x, k, n_samples=n_samples),
                live_marker=numeric_df_from_marker(
                    SingleThresholdMarker.from_threshold(k), x, n_samples=n_samples
                ),
            )
        )
        x = ratio * k2
        results.append(
            DfComparison(
                mechanism="DT-DCTCP",
                amplitude=x,
                closed_form=df_double_threshold(x, k1, k2),
                numeric=numeric_df_double(x, k1, k2, n_samples=n_samples),
                live_marker=numeric_df_from_marker(
                    DoubleThresholdMarker.from_thresholds(k1, k2),
                    x,
                    n_samples=n_samples,
                ),
            )
        )
    return results


def main() -> List[DfComparison]:
    results = run()
    rows = []
    for r in results:
        rows.append(
            (
                r.mechanism,
                r.amplitude,
                f"{r.closed_form.real:.5f}{r.closed_form.imag:+.5f}j",
                r.numeric_error,
                r.marker_error,
            )
        )
    print_table(
        ["mechanism", "X", "N(X) closed form", "|err| numeric", "|err| marker"],
        rows,
        title="Figures 6/8 - describing functions: closed form (Eq. 22/27) vs "
        "numeric Fourier vs live marker",
    )
    worst = max(max(r.numeric_error, r.marker_error) for r in results)
    print(f"worst-case disagreement across all rows: {worst:.2e}")
    return results
