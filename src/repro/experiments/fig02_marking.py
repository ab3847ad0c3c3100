"""Figure 2: the two marking strategies on the same queue excursion.

The paper's Figure 2 is an illustration: a queue that ramps up through
the thresholds and back down, with the packets each mechanism marks
highlighted.  This experiment makes it executable — it drives both
markers with one triangular queue excursion and reports, for each
mechanism, the queue levels at which marking starts and stops.

Expected outcome (the definition of DT-DCTCP): DCTCP starts and stops
at K on both slopes; DT-DCTCP starts at K1 on the way up (earlier) and
stops at K2 on the way down (earlier).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from repro.core.marking import DoubleThresholdMarker, SingleThresholdMarker
from repro.experiments.tables import print_table

__all__ = ["MarkingTrace", "drive_marker", "run", "main"]


@dataclasses.dataclass(frozen=True)
class MarkingTrace:
    """Marking decisions along a queue excursion."""

    name: str
    queue: np.ndarray
    marked: np.ndarray  # booleans, one per arrival

    @property
    def mark_start_level(self) -> Optional[float]:
        """Queue level of the first marked packet (rising edge)."""
        idx = np.argmax(self.marked) if self.marked.any() else None
        return None if idx is None else float(self.queue[idx])

    @property
    def mark_stop_level(self) -> Optional[float]:
        """Queue level of the last marked packet (falling edge)."""
        if not self.marked.any():
            return None
        idx = len(self.marked) - 1 - int(np.argmax(self.marked[::-1]))
        return float(self.queue[idx])

    @property
    def marked_fraction(self) -> float:
        return float(np.mean(self.marked))


def triangular_excursion(
    peak: float = 70.0, n_steps: int = 141
) -> np.ndarray:
    """A queue that climbs 0 -> peak -> 0 in unit steps."""
    up = np.linspace(0.0, peak, (n_steps + 1) // 2)
    down = np.linspace(peak, 0.0, (n_steps + 1) // 2)
    return np.concatenate([up, down[1:]])


def drive_marker(name: str, marker, queue: np.ndarray) -> MarkingTrace:
    """Feed every arrival's queue level through the marker."""
    marker.reset()
    marked = np.array([marker.should_mark(float(q)) for q in queue])
    return MarkingTrace(name=name, queue=queue, marked=marked)


def run(
    k: float = 40.0, k1: float = 30.0, k2: float = 50.0, peak: float = 70.0
) -> List[MarkingTrace]:
    """Both mechanisms over the same excursion."""
    queue = triangular_excursion(peak=peak)
    return [
        drive_marker(
            "DCTCP", SingleThresholdMarker.from_threshold(k), queue
        ),
        drive_marker(
            "DT-DCTCP",
            DoubleThresholdMarker.from_thresholds(k1, k2),
            queue,
        ),
    ]


def main() -> List[MarkingTrace]:
    traces = run()
    rows: List[Tuple[object, ...]] = []
    for trace in traces:
        rows.append(
            (
                trace.name,
                trace.mark_start_level,
                trace.mark_stop_level,
                trace.marked_fraction,
            )
        )
    print_table(
        ["mechanism", "marks from (rising)", "marks until (falling)", "fraction"],
        rows,
        title="Figure 2 - marking strategies over one queue excursion "
        "(K=40; K1=30, K2=50)",
    )
    return traces
